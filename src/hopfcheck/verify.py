"""The generic nilpotency harness and the specialized corollary suites.

The abstract setting: a module D with distinguished degree components
D_1, D_2, ..., a linear map delta : D -> D(x)D, and two commuting linear
endomaps e, f that intertwine delta and agree on Ker delta.  If e - f
annihilates D_1 + ... + D_p and delta respects the grading, then for every
u > p the map (e-f)^(u-p) sends D_u into Ker delta and (e-f)^(u-p+1)
annihilates D_u.  ``check_hypotheses`` audits the assumptions on an
instance, ``verify_conclusions`` checks the conclusions exactly, and
``binomial_identity_check`` verifies the operator-level binomial expansion
that drives the proof.

The suites below specialize to connected presentations with e, f drawn
from even powers of the antipode.  Every nilpotency claim, in the theorem
and in its corollaries, says that g^k sends a degree block into a target
subspace and that g^(k+1) kills it; ``chain_checks`` is the one engine
that checks such claims, and each suite declares its claims over it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import StructuralError
from .gmod import Element, GradedBasis, GradedMap, Tensor2Element, kernel_vectors
from .hopf import HopfPresentation
from .rings import Ring, binomial
from .reduced import (is_primitive, middle_bidegree_failure,
                      reduced_coproduct_label)
from .report import (EXPECTED_NONIDENTITY, FAIL, NOT_CHECKED, PASS, Report,
                     witness_of)


@dataclass
class PreCoalgebraInstance:
    """Concrete data for the generic harness.

    Degree-d labels play the role of D_d for d >= 1; degree-0 labels are
    permitted but belong to no D_d.  ``delta`` maps each label to a
    tensor-square element.
    """

    name: str
    basis: GradedBasis
    ring: Ring
    delta: dict
    e: GradedMap
    f: GradedMap
    p: int

    def __post_init__(self):
        require_positive_p(self.p)
        missing = [l for l in self.basis.labels if l not in self.delta]
        if missing:
            raise StructuralError(f"delta undefined on labels {missing[:3]}")

    @property
    def g(self) -> GradedMap:
        return self.e - self.f

    def delta_apply(self, x: Element) -> Tensor2Element:
        return Tensor2Element.lincomb(
            self.basis, self.ring,
            ((c, self.delta[l], None) for l, c in x.coeffs.items()))


def instance_from_hopf(H: HopfPresentation, e_spec, f_spec,
                       p: int) -> PreCoalgebraInstance:
    """Instance with delta the reduced coproduct and e, f even antipode powers.

    ``e_spec``/``f_spec`` are "id", "S2" or "S4" (equivalently 0, 2, 4 as
    exponents of the antipode).
    """
    H.require_connected()

    def resolve(spec) -> GradedMap:
        if spec in ("id", 0):
            return GradedMap.identity(H.basis, H.ring)
        exponent = {"S2": 2, "S4": 4}.get(spec, spec)
        if not isinstance(exponent, int) or exponent % 2 or exponent < 0:
            raise StructuralError(f"bad endomap spec {spec!r}")
        return H.antipode().power(exponent)

    delta = {l: reduced_coproduct_label(H, l) for l in H.basis.labels}
    return PreCoalgebraInstance(f"{H.name}[{e_spec},{f_spec},p={p}]",
                                H.basis, H.ring, delta,
                                resolve(e_spec), resolve(f_spec), p)


def check_hypotheses(I: PreCoalgebraInstance) -> Report:
    rep = Report(f"theorem-hypotheses({I.name})")
    e, f, g = I.e, I.f, I.g

    def morphism_ok(phi):
        def check(label):
            lhs = phi.apply_tensor(phi, I.delta[label])
            rhs = I.delta_apply(phi(Element.basis_vector(I.basis, I.ring, label)))
            return lhs == rhs
        return check

    rep.per_label("f-intertwines-delta", "(f(x)f) o delta = delta o f",
                  I.basis.labels, morphism_ok(f))
    rep.per_label("e-intertwines-delta", "(e(x)e) o delta = delta o e",
                  I.basis.labels, morphism_ok(e))
    rep.per_label("commute", "f o e = e o f", I.basis.labels,
                  lambda l: f(e(Element.basis_vector(I.basis, I.ring, l)))
                  == e(f(Element.basis_vector(I.basis, I.ring, l))))

    rep.per_label("annihilation", "(e-f)(D_1 + ... + D_p) = 0",
                  I.basis.labels_between(1, I.p),
                  lambda l: g(Element.basis_vector(I.basis, I.ring, l)).is_zero())
    rep.first_failure(
        "grading", "delta(D_n) supported in sum of D_i (x) D_(n-i), 0 < i < n",
        I.basis.labels_between(I.p + 1, I.basis.max_degree),
        lambda l: middle_bidegree_failure(l, I.delta[l]))

    if not I.ring.is_field:
        rep.add("kernel", "Ker delta contained in Ker(e-f)", NOT_CHECKED,
                f"ring {I.ring} is not a field")
        return rep
    columns = {l: I.delta[l].coeffs for l in I.basis.labels}
    rep.first_failure(
        "kernel", "Ker delta contained in Ker(e-f)",
        (Element(I.basis, I.ring, vec)
         for vec in kernel_vectors(columns, I.basis.labels, I.ring)),
        lambda x: None if g(x).is_zero() else witness_of(x, g(x)))
    return rep


def require_positive_p(p):
    """The annihilation bound p of the theorem and its corollaries."""
    if not isinstance(p, int) or p < 1:
        raise StructuralError("p must be a positive integer")


def _nonzero(y: Element):
    """A chain check's failure for "y = 0": None when y is zero, else y."""
    return None if y.is_zero() else y


def chain_checks(rep: Report, g: GradedMap, p: int, checks, *,
                 filtered: bool = False, up_to: int | None = None):
    """Add one check to ``rep`` per declaration ``(claim, statement,
    first_u, shift, failure)``.

    For each u from ``first_u`` up to ``up_to`` (default: the top degree)
    the check tests ``y = g^(u-p+shift)(x)``, where x runs over the labels
    of degree u, or of degree <= u when ``filtered`` is set; declarations
    keep ``u-p+shift >= 0``.  ``failure(y)`` returns None when y passes,
    else the value to put in the witness.

    Each label's chain x, g(x), g^2(x), ... is walked once, only as far as
    some check still needs it, and then dropped.  It stops at its first
    zero: every target is a subspace and every extra annihilator is
    linear, so a zero y always passes and ``failure`` is never called on
    one.  The witness is the failure with the least (u, label position),
    the first one a u-major scan meets.  It names the label, or
    ``(label, u)`` in filtered scope.
    """
    require_positive_p(p)
    basis = g.basis
    top = basis.max_degree if up_to is None else min(up_to, basis.max_degree)
    # per check: the least u failed so far (top + 1 while none), its witness
    failed_u = [top + 1] * len(checks)
    witness = [None] * len(checks)
    lowest = 0 if filtered else min(check[2] for check in checks)
    for label in basis.labels_between(lowest, top):
        d = basis.degree_of(label)
        # per check still open on this label: the range of u left to test
        todo = {}
        for i, (_, _, first_u, shift, failure) in enumerate(checks):
            lo, hi = max(first_u, d), min(top if filtered else d, failed_u[i] - 1)
            if lo <= hi:
                todo[i] = (lo, hi, shift, failure)
        y, k = Element.basis_vector(basis, g.ring, label), 0
        while todo and not y.is_zero():
            for i, (lo, hi, shift, failure) in list(todo.items()):
                u = k + p - shift
                if u < lo:
                    continue
                value = failure(y)
                if value is not None:
                    failed_u[i] = u
                    witness[i] = witness_of((label, u) if filtered else label,
                                            value)
                if value is not None or u == hi:
                    del todo[i]
            if todo:
                y, k = g(y), k + 1
    for (claim, statement, _, _, _), bad in zip(checks, witness):
        rep.add(claim, statement, FAIL if bad else PASS, bad)


def verify_conclusions(I: PreCoalgebraInstance,
                       up_to: int | None = None) -> Report:
    rep = Report(f"theorem-conclusions({I.name})")
    chain_checks(rep, I.g, I.p, (
        ("into-kernel", "(e-f)^(u-p)(D_u) contained in Ker delta", I.p + 1, 0,
         lambda y: _nonzero(I.delta_apply(y))),
        ("nilpotency", "(e-f)^(u-p+1)(D_u) = 0", I.p + 1, 1, _nonzero),
    ), up_to=up_to)
    return rep


def binomial_identity_check(I: PreCoalgebraInstance, K: int) -> Report:
    """Operator-level binomial expansion of (e(x)e - f(x)f)^k."""
    rep = Report(f"binomial-identity({I.name})")
    e, f, g = I.e, I.f, I.g

    commute = all(
        f(e(Element.basis_vector(I.basis, I.ring, l)))
        == e(f(Element.basis_vector(I.basis, I.ring, l)))
        for l in I.basis.labels)
    if not commute:
        rep.add("precondition", "f o e = e o f", FAIL, "e and f do not commute")
        return rep
    rep.add("precondition", "f o e = e o f", PASS)

    e_pows = [e.power(k) for k in range(K + 1)]
    f_pows = [f.power(k) for k in range(K + 1)]
    g_pows = [g.power(k) for k in range(K + 1)]

    def commutation_failure(ij):
        i, j = ij
        if g_pows[i].compose(e_pows[j]) == e_pows[j].compose(g_pows[i]):
            return None
        return witness_of(ij)

    rep.first_failure("power-commutation", "g^i o e^j = e^j o g^i",
                      itertools.product(range(K + 1), repeat=2),
                      commutation_failure)

    gf = g.tensor(f)
    eg = e.tensor(g)
    lemma_ok = gf.compose(eg) == eg.compose(gf)
    rep.add("tensor-commutation", "(g(x)f) o (e(x)g) = (e(x)g) o (g(x)f)",
            PASS if lemma_ok else FAIL,
            None if lemma_ok else "tensor factors do not commute")

    h = e.tensor(e) - f.tensor(f)
    h_pow = h.power(0)
    bad = None
    for k in range(K + 1):
        if k > 0:
            h_pow = h.compose(h_pow)
        rhs = None
        for r in range(k + 1):
            term = e_pows[k - r].tensor(f_pows[r]).compose(
                g_pows[r].tensor(g_pows[k - r])).scale(
                    I.ring.embed(binomial(k, r)))
            rhs = term if rhs is None else rhs + term
        if h_pow != rhs:
            bad = witness_of(k)
            break
    rep.add("binomial-expansion",
            "h^k = sum_r C(k,r) (e^(k-r)(x)f^r) o (g^r(x)g^(k-r))",
            FAIL if bad else PASS, bad)
    return rep


# ---------------------------------------------------------------------------
# corollary suites on Hopf presentations
# ---------------------------------------------------------------------------

def _coalgebra_endo_ok(H: HopfPresentation, phi: GradedMap, label: str) -> bool:
    lhs = phi.apply_tensor(phi, H.coproduct_of_label(label))
    rhs = H.coproduct(phi(H.element(label)))
    if lhs != rhs:
        return False
    return H.counit(phi(H.element(label))) == H.counit_of_label(label)


def _non_primitive(H: HopfPresentation):
    """A chain check's failure for "y is primitive"; ``is_primitive`` is
    looked up at call time, so a wrapper installed on it is seen."""
    return lambda y: None if is_primitive(H, y) else y


def _antipode_chain_maps(H: HopfPresentation):
    """g = id - S^2 and the extra annihilator id + S of its chains."""
    S = H.antipode()
    ident = GradedMap.identity(H.basis, H.ring)
    return ident - S.compose(S), ident + S


def suite_corollary_filtered(H: HopfPresentation, e: GradedMap, f: GradedMap,
                             p: int) -> Report:
    """Filtered-coalgebra corollary: (e-f)^(u-p) lands in primitives and
    (e-f)^(u-p+1) annihilates the filtration step, given the hypotheses."""
    require_positive_p(p)
    H.require_connected()
    rep = Report(f"filtered-corollary({H.name},p={p})")

    for claim, phi in (("e-endomorphism", e), ("f-endomorphism", f)):
        if phi(H.unit()) != H.unit():
            rep.add(claim, "coalgebra endomorphism fixing the unit", FAIL,
                    witness_of(H.unit_label, phi(H.unit())))
            continue
        rep.per_label(claim, "coalgebra endomorphism fixing the unit",
                      H.basis.labels, lambda l, m=phi: _coalgebra_endo_ok(H, m, l))
    g = e - f
    rep.per_label("annihilation", "(e-f) vanishes on degrees <= p",
                  H.basis.labels_up_to(p),
                  lambda l: g(H.element(l)).is_zero())
    if not rep.ok():
        rep.add("conclusions", "suite aborted: a hypothesis failed",
                NOT_CHECKED)
        return rep

    chain_checks(rep, g, p, (
        ("into-primitives",
         "(e-f)^(u-p) of the u-th filtration step is primitive", p + 1, 0,
         _non_primitive(H)),
        ("nilpotency", "(e-f)^(u-p+1) annihilates the u-th filtration step",
         p, 1, _nonzero),
    ), filtered=True)
    return rep


def suite_graded_hopf(H: HopfPresentation) -> Report:
    """Per-degree claims for id - S^2 on a connected graded presentation."""
    H.require_connected()
    rep = Report(f"graded-hopf({H.name})")
    g, id_plus_S = _antipode_chain_maps(H)
    chain_checks(rep, g, 1, (
        ("into-primitives", "(id-S^2)^(u-1)(H_u) contained in Prim", 1, 0,
         _non_primitive(H)),
        ("killed-by-id-plus-S", "((id+S) o (id-S^2)^(u-1))(H_u) = 0", 1, 0,
         lambda y: _nonzero(id_plus_S(y))),
        ("nilpotency", "(id-S^2)^u(H_u) = 0", 1, 1, _nonzero),
    ))
    return rep


def suite_lowered_exponent(H: HopfPresentation, p: int) -> Report:
    """Lowered-exponent corollary: if (id-S^2) kills H_2..H_p then
    (id-S^2)^(u-p+1) kills degrees <= u, with primitives in between."""
    require_positive_p(p)
    H.require_connected()
    rep = Report(f"lowered-exponent({H.name},p={p})")
    g, id_plus_S = _antipode_chain_maps(H)
    N = H.max_degree

    def premise_failure(label):
        y = g(H.element(label))
        return None if y.is_zero() else witness_of(label, y)

    premise_ok = rep.first_failure(
        "premise", "(id-S^2) annihilates H_i for 2 <= i <= p",
        H.basis.labels_between(2, p), premise_failure)

    if p == 2 and 2 <= N:
        comm_bad = None
        for l1 in H.basis.labels_of_degree(1):
            for l2 in H.basis.labels_of_degree(1):
                if H.product_of_labels(l1, l2) != H.product_of_labels(l2, l1):
                    comm_bad = witness_of((l1, l2))
                    break
            if comm_bad:
                break
        if comm_bad is None:
            rep.add("degree-1-commutativity",
                    "ab = ba for all degree-1 basis pairs (sufficient condition)",
                    PASS)
        else:
            rep.add("degree-1-commutativity",
                    "ab = ba for all degree-1 basis pairs (sufficient condition)",
                    NOT_CHECKED,
                    f"condition absent ({comm_bad}); it is sufficient, not necessary")

    if not premise_ok:
        rep.add("conclusions", "skipped: premise failed", NOT_CHECKED)
        return rep

    chain_checks(rep, g, p, (
        ("into-primitives", "(id-S^2)^(u-p) of degrees <= u is primitive",
         p + 1, 0, _non_primitive(H)),
        ("killed-by-id-plus-S",
         "((id+S) o (id-S^2)^(u-p)) annihilates degrees <= u", p + 1, 0,
         lambda y: _nonzero(id_plus_S(y))),
        ("nilpotency", "(id-S^2)^(u-p+1) annihilates degrees <= u", p, 1,
         _nonzero),
    ), filtered=True)
    return rep


def suite_antipode_props(H: HopfPresentation) -> Report:
    """Basic antipode facts: S^2 is a coalgebra morphism, S fixes the unit,
    S negates primitives, S reverses degree-1 products."""
    rep = Report(f"antipode-props({H.name})")
    S = H.antipode()
    S2 = S.compose(S)
    labels = H.basis.labels

    rep.per_label("squared-coalgebra-morphism",
                  "S^2 is a coalgebra morphism", labels,
                  lambda l: _coalgebra_endo_ok(H, S2, l))
    unit_ok = S(H.unit()) == H.unit()
    rep.add("unit-fixed", "S(1) = 1", PASS if unit_ok else FAIL,
            None if unit_ok else witness_of(H.unit_label, S(H.unit())))

    if H.is_connected():
        rep.per_label("degree-1-negated", "S(x) = -x on degree 1",
                      H.basis.labels_of_degree(1),
                      lambda l: S(H.element(l)) == -H.element(l))
        rep.per_label("degree-1-involutive", "S^2(x) = x on degree 1",
                      H.basis.labels_of_degree(1),
                      lambda l: S2(H.element(l)) == H.element(l))
        if 2 <= H.max_degree:
            def antimorphism_failure(pair):
                lhs = S(H.product_of_labels(*pair))
                return (None if lhs == H.product_of_labels(pair[1], pair[0])
                        else witness_of(pair, lhs))

            degree_one = H.basis.labels_of_degree(1)
            rep.first_failure("degree-1-antimorphism",
                              "S(ab) = ba on degree-1 pairs",
                              itertools.product(degree_one, repeat=2),
                              antimorphism_failure)

        def shape_failure(label):
            x = H.element(label)
            middle = (H.coproduct_of_label(label) - x.tensor(H.unit())
                      - H.unit().tensor(x))
            return middle_bidegree_failure(label, middle)

        rep.first_failure("coproduct-shape",
                          "coproduct(x) = 1(x)x + x(x)1 + middle terms",
                          H.basis.labels_between(1, H.max_degree),
                          shape_failure)
    else:
        rep.add("degree-1-negated", "S(x) = -x on degree 1", NOT_CHECKED,
                "presentation is not connected")

    nonident = next((l for l in labels
                     if S2(H.element(l)) != H.element(l)), None)
    if nonident is None:
        rep.add("squared-antipode", "S^2 = id on all basis labels", PASS)
    else:
        rep.add("squared-antipode", "S^2 = id on all basis labels",
                EXPECTED_NONIDENTITY,
                witness_of(nonident, S2(H.element(nonident))))
    return rep


def suite_oracle_agreement(H: HopfPresentation) -> Report:
    """The two antipode recursions (left and right axiom) agree."""
    rep = Report(f"oracle-agreement({H.name})")
    if not H.is_connected() and H.has_explicit_antipode():
        rep.add("agreement",
                "left-recursion antipode equals right-recursion antipode",
                NOT_CHECKED, f"{H.name} is not connected: both recursions "
                "fall back to the explicit antipode table")
        return rep
    S = H.antipode()
    T = H.antipode_oracle()
    rep.first_failure(
        "agreement", "left-recursion antipode equals right-recursion antipode",
        H.basis.labels,
        lambda l: None if S.images[l] == T.images[l]
        else witness_of(l, (S.images[l], T.images[l])))
    return rep


def suite_taft_remark(n: int, K: int = 10) -> Report:
    """The Taft algebra's antipode square acts on the skew-primitive x by a
    nontrivial root of unity, so no power of id - S^2 kills it."""
    from . import zoo

    H = zoo.taft(n)
    rep = Report(f"taft-remark(n={n})")
    axioms = H.verify_antipode_axioms()
    for c in axioms.checks:
        rep.checks.append(c)

    S = H.antipode()
    S2 = S.compose(S)
    q = H.ring.element([0, 1])
    q_inv = q ** (n - 1)
    x = H.element(zoo._taft_label(0, 1))
    s2x = S2(x)
    realized = None
    for name, c in (("q^-1", q_inv), ("q", q)):
        if s2x == x.scale(c):
            realized = (name, c)
            break
    if realized is None:
        rep.add("squared-action", "S^2(x) = q x or q^-1 x", FAIL,
                witness_of("x", s2x))
        return rep
    rep.add("squared-action", "S^2(x) = q x or q^-1 x", PASS,
            f"realized: S^2(x) = {realized[0]} * x")

    ident = GradedMap.identity(H.basis, H.ring)
    g = ident - S2
    one_minus = H.ring.one - realized[1]
    y = x
    coeff = H.ring.one
    bad = None
    for k in range(1, K + 1):
        y = g(y)
        coeff = coeff * one_minus
        if y != x.scale(coeff) or y.is_zero():
            bad = witness_of(k, y)
            break
    rep.add("never-nilpotent",
            "(id-S^2)^k(x) = (1 - S^2-eigenvalue)^k x, nonzero for all k",
            FAIL if bad else EXPECTED_NONIDENTITY, bad)
    return rep
