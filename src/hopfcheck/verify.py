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
from even powers of the antipode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
from .gmod import Element, GradedBasis, GradedMap, Tensor2Element, kernel_vectors
from .hopf import HopfPresentation
from .rings import Ring, binomial
from .reduced import is_primitive, reduced_coproduct_label
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
        if self.p < 1:
            raise StructuralError("p must be a positive integer")
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

    low = [l for d in range(1, I.p + 1) for l in I.basis.labels_of_degree(d)]
    rep.per_label("annihilation", "(e-f)(D_1 + ... + D_p) = 0", low,
                  lambda l: g(Element.basis_vector(I.basis, I.ring, l)).is_zero())

    bad = None
    for n in range(I.p + 1, I.basis.max_degree + 1):
        allowed = {(i, n - i) for i in range(1, n)}
        for label in I.basis.labels_of_degree(n):
            support = I.delta[label].bidegree_support()
            if not support <= allowed:
                bad = witness_of(label, sorted(support - allowed))
                break
        if bad:
            break
    rep.add("grading", "delta(D_n) supported in sum of D_i (x) D_(n-i), 0 < i < n",
            FAIL if bad else PASS, bad)

    if not I.ring.is_field:
        rep.add("kernel", "Ker delta contained in Ker(e-f)", NOT_CHECKED,
                f"ring {I.ring} is not a field")
        return rep
    columns = {l: I.delta[l].coeffs for l in I.basis.labels}
    bad = None
    for vec in kernel_vectors(columns, I.basis.labels, I.ring):
        x = Element(I.basis, I.ring, vec)
        if not g(x).is_zero():
            bad = witness_of(x, g(x))
            break
    rep.add("kernel", "Ker delta contained in Ker(e-f)",
            FAIL if bad else PASS, bad)
    return rep


def verify_conclusions(I: PreCoalgebraInstance,
                       up_to: int | None = None) -> Report:
    rep = Report(f"theorem-conclusions({I.name})")
    U = I.basis.max_degree if up_to is None else up_to
    g = I.g
    bad_ker = bad_nil = None
    for u in range(I.p + 1, U + 1):
        for label in I.basis.labels_of_degree(u):
            y = Element.basis_vector(I.basis, I.ring, label)
            for _ in range(u - I.p):
                y = g(y)
            if bad_ker is None and not I.delta_apply(y).is_zero():
                bad_ker = witness_of(label, I.delta_apply(y))
            if bad_nil is None and not g(y).is_zero():
                bad_nil = witness_of(label, g(y))
    rep.add("into-kernel", "(e-f)^(u-p)(D_u) contained in Ker delta",
            FAIL if bad_ker else PASS, bad_ker)
    rep.add("nilpotency", "(e-f)^(u-p+1)(D_u) = 0",
            FAIL if bad_nil else PASS, bad_nil)
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

    bad = None
    for i in range(K + 1):
        for j in range(K + 1):
            if g_pows[i].compose(e_pows[j]) != e_pows[j].compose(g_pows[i]):
                bad = witness_of((i, j))
                break
        if bad:
            break
    rep.add("power-commutation", "g^i o e^j = e^j o g^i",
            FAIL if bad else PASS, bad)

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


def suite_corollary_filtered(H: HopfPresentation, e: GradedMap, f: GradedMap,
                             p: int) -> Report:
    """Filtered-coalgebra corollary: (e-f)^(u-p) lands in primitives and
    (e-f)^(u-p+1) annihilates the filtration step, given the hypotheses."""
    H.require_connected()
    rep = Report(f"filtered-corollary({H.name},p={p})")
    N = H.max_degree

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

    chains = {}
    for label in H.basis.labels_up_to(N):
        chain = [H.element(label)]
        for _ in range(N - p + 1):
            chain.append(g(chain[-1]))
        chains[label] = chain

    bad = None
    for u in range(p + 1, N + 1):
        for label in H.basis.labels_up_to(u):
            if not is_primitive(H, chains[label][u - p]):
                bad = witness_of((label, u), chains[label][u - p])
                break
        if bad:
            break
    rep.add("into-primitives", "(e-f)^(u-p) of the u-th filtration step is primitive",
            FAIL if bad else PASS, bad)

    bad = None
    for u in range(p, N + 1):
        for label in H.basis.labels_up_to(u):
            if not chains[label][u - p + 1].is_zero():
                bad = witness_of((label, u), chains[label][u - p + 1])
                break
        if bad:
            break
    rep.add("nilpotency", "(e-f)^(u-p+1) annihilates the u-th filtration step",
            FAIL if bad else PASS, bad)
    return rep


def suite_graded_hopf(H: HopfPresentation) -> Report:
    """Per-degree claims for id - S^2 on a connected graded presentation."""
    H.require_connected()
    rep = Report(f"graded-hopf({H.name})")
    S = H.antipode()
    ident = GradedMap.identity(H.basis, H.ring)
    g = ident - S.compose(S)
    id_plus_S = ident + S

    bad_prim = bad_killed = bad_nil = None
    for u in range(1, H.max_degree + 1):
        for label in H.basis.labels_of_degree(u):
            y = H.element(label)
            for _ in range(u - 1):
                y = g(y)
            if bad_prim is None and not is_primitive(H, y):
                bad_prim = witness_of(label, y)
            if bad_killed is None and not id_plus_S(y).is_zero():
                bad_killed = witness_of(label, id_plus_S(y))
            if bad_nil is None and not g(y).is_zero():
                bad_nil = witness_of(label, g(y))
    rep.add("into-primitives", "(id-S^2)^(u-1)(H_u) contained in Prim",
            FAIL if bad_prim else PASS, bad_prim)
    rep.add("killed-by-id-plus-S", "((id+S) o (id-S^2)^(u-1))(H_u) = 0",
            FAIL if bad_killed else PASS, bad_killed)
    rep.add("nilpotency", "(id-S^2)^u(H_u) = 0",
            FAIL if bad_nil else PASS, bad_nil)
    return rep


def suite_lowered_exponent(H: HopfPresentation, p: int) -> Report:
    """Lowered-exponent corollary: if (id-S^2) kills H_2..H_p then
    (id-S^2)^(u-p+1) kills degrees <= u, with primitives in between."""
    H.require_connected()
    rep = Report(f"lowered-exponent({H.name},p={p})")
    S = H.antipode()
    ident = GradedMap.identity(H.basis, H.ring)
    g = ident - S.compose(S)
    id_plus_S = ident + S
    N = H.max_degree

    bad = None
    for i in range(2, p + 1):
        for label in H.basis.labels_of_degree(i):
            y = g(H.element(label))
            if not y.is_zero():
                bad = witness_of(label, y)
                break
        if bad:
            break
    rep.add("premise", "(id-S^2) annihilates H_i for 2 <= i <= p",
            FAIL if bad else PASS, bad)

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

    if bad:
        rep.add("conclusions", "skipped: premise failed", NOT_CHECKED)
        return rep

    chains = {}
    for label in H.basis.labels_up_to(N):
        chain = [H.element(label)]
        for _ in range(N - p + 1):
            chain.append(g(chain[-1]))
        chains[label] = chain

    bad_prim = bad_killed = bad_nil = None
    for u in range(p + 1, N + 1):
        for label in H.basis.labels_up_to(u):
            y = chains[label][u - p]
            if bad_prim is None and not is_primitive(H, y):
                bad_prim = witness_of((label, u), y)
            if bad_killed is None and not id_plus_S(y).is_zero():
                bad_killed = witness_of((label, u), id_plus_S(y))
    for u in range(p, N + 1):
        for label in H.basis.labels_up_to(u):
            if bad_nil is None and not chains[label][u - p + 1].is_zero():
                bad_nil = witness_of((label, u), chains[label][u - p + 1])
    rep.add("into-primitives", "(id-S^2)^(u-p) of degrees <= u is primitive",
            FAIL if bad_prim else PASS, bad_prim)
    rep.add("killed-by-id-plus-S",
            "((id+S) o (id-S^2)^(u-p)) annihilates degrees <= u",
            FAIL if bad_killed else PASS, bad_killed)
    rep.add("nilpotency", "(id-S^2)^(u-p+1) annihilates degrees <= u",
            FAIL if bad_nil else PASS, bad_nil)
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
            bad = None
            for l1 in H.basis.labels_of_degree(1):
                for l2 in H.basis.labels_of_degree(1):
                    lhs = S(H.product_of_labels(l1, l2))
                    rhs = H.product_of_labels(l2, l1)
                    if lhs != rhs:
                        bad = witness_of((l1, l2), lhs)
                        break
                if bad:
                    break
            rep.add("degree-1-antimorphism", "S(ab) = ba on degree-1 pairs",
                    FAIL if bad else PASS, bad)
        bad = None
        for d in range(1, H.max_degree + 1):
            allowed = {(k, d - k) for k in range(1, d)}
            for label in H.basis.labels_of_degree(d):
                w = (H.coproduct_of_label(label)
                     - H.element(label).tensor(H.unit())
                     - H.unit().tensor(H.element(label)))
                if not w.bidegree_support() <= allowed:
                    bad = witness_of(label, sorted(w.bidegree_support() - allowed))
                    break
            if bad:
                break
        rep.add("coproduct-shape",
                "coproduct(x) = 1(x)x + x(x)1 + middle terms",
                FAIL if bad else PASS, bad)
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
    bad = next((l for l in H.basis.labels if S.images[l] != T.images[l]), None)
    rep.add("agreement", "left-recursion antipode equals right-recursion antipode",
            FAIL if bad else PASS,
            None if bad is None else witness_of(bad, (S.images[bad], T.images[bad])))
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
