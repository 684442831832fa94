"""The generic nilpotency harness and the specialized corollary suites.

The abstract setting: a module D with distinguished degree components
D_1, D_2, ..., a linear map delta : D -> D(x)D, and two commuting linear
endomaps e, f that intertwine delta and agree on Ker delta.  If e - f
annihilates D_1 + ... + D_p and delta respects the grading, then for every
u > p the map (e-f)^(u-p) sends D_u into Ker delta and (e-f)^(u-p+1)
annihilates D_u.  ``check_hypotheses`` audits the assumptions on an
instance, ``verify_conclusions`` checks the conclusions exactly,
``verify_theorem`` runs the second only when the first fails nothing, and
``binomial_identity_check`` verifies the operator-level binomial expansion
that drives the proof.

The suites below specialize to connected presentations with e, f drawn
from even powers of the antipode.  Every nilpotency claim, in the theorem
and in its corollaries, says that g^k sends a degree block into a target
subspace and that g^(k+1) kills it; ``chain_checks`` is the one engine
that checks such claims, and each suite declares its claims over it.  It
steps the chains of a whole degree level by level and eliminates only at
the levels a check reads.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import zoo
from .errors import StructuralError
from .gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                   _same_module, tensor_sum_vanishes)
from .hopf import HopfPresentation
from .rings import Ring, binomial, is_prime
from .reduced import (delta_grading_failure, delta_kernel,
                      delta_kernel_vectors, is_primitive,
                      middle_bidegree_failure, reduced_coproduct_label)
from .report import (EXPECTED_NONIDENTITY, FAIL, NOT_CHECKED, PASS, VACUOUS,
                     Report, witness_of)
from .specfile import export_presentation


class PreCoalgebraInstance:
    """Concrete data for the generic harness.

    Degree-d labels play the role of D_d for d >= 1; degree-0 labels are
    permitted but belong to no D_d.  ``delta`` maps each label to a
    tensor-square element.
    """

    def __init__(self, name: str, basis: GradedBasis, ring: Ring, delta: dict,
                 e: GradedMap, f: GradedMap, p: int):
        self.name, self.basis, self.ring, self.delta = name, basis, ring, delta
        self.e, self.f, self.p = e, f, p
        require_positive_p(p)
        missing = [l for l in basis.labels if l not in delta]
        if missing:
            raise StructuralError(f"delta undefined on labels {missing[:3]}")
        # coefficients are raw values, so each operand's ring is checked here
        if not all(_same_module(x, self)
                   for x in (self.e, self.f, *self.delta.values())):
            raise StructuralError("e, f and delta must be over the instance's "
                                  "basis and ring")

    @cached_property
    def g(self) -> GradedMap:
        """e - f, built once: the hypotheses and the conclusions share it
        and the degree blocks it keeps."""
        return self.e - self.f

    def commute_on(self, label: str) -> bool:
        """f o e = e o f on a basis label."""
        return self.f(self.e.images[label]) == self.e(self.f.images[label])

    def delta_apply(self, x: Element) -> Tensor2Element:
        if len(x.coeffs) == 1 and self.ring._one in x.coeffs.values():
            return self.delta[next(iter(x.coeffs))]
        return Tensor2Element.lincomb(
            self.basis, self.ring,
            ((c, self.delta[l], None) for l, c in x.coeffs.items()))

    def kernel(self) -> list:
        """Spanning vectors of Ker delta (a field only), by :func:`delta_kernel`;
        an instance from ``instance_from_hopf`` reads its presentation's."""
        return delta_kernel(self.basis, self.ring, self.delta)

    def grading_failure(self, label: str):
        """:func:`middle_bidegree_failure` of delta on a label; an instance
        from ``instance_from_hopf`` reads its presentation's, decided once."""
        return middle_bidegree_failure(label, self.delta[label])


def instance_from_hopf(H: HopfPresentation, e_spec, f_spec,
                       p: int) -> PreCoalgebraInstance:
    """Instance with delta the reduced coproduct and e, f even antipode powers.

    ``e_spec``/``f_spec`` are "id", "S2" or "S4" (equivalently 0, 2, 4 as
    exponents of the antipode), built as powers of the cached S^2.  For
    e = id and f = S^2 the instance's g is ``H.id_minus_antipode_squared()``,
    the map that the antipode suites of the same presentation step.
    """
    H.require_connected()

    def resolve(spec) -> GradedMap:
        if spec in ("id", 0):
            return GradedMap.identity(H.basis, H.ring)
        exponent = {"S2": 2, "S4": 4}.get(spec, spec)
        if not isinstance(exponent, int) or exponent % 2 or exponent < 0:
            raise StructuralError(f"bad endomap spec {spec!r}")
        return H.antipode_squared().power(exponent // 2)

    delta = {l: reduced_coproduct_label(H, l) for l in H.basis.labels}
    inst = PreCoalgebraInstance(f"{H.name}[{e_spec},{f_spec},p={p}]",
                                H.basis, H.ring, delta,
                                resolve(e_spec), resolve(f_spec), p)
    if e_spec in ("id", 0) and f_spec in ("S2", 2):
        inst.g = H.id_minus_antipode_squared()
    inst.kernel = lambda: delta_kernel_vectors(H)
    inst.grading_failure = lambda l: delta_grading_failure(H, l)
    return inst


def check_hypotheses(I: PreCoalgebraInstance) -> Report:
    rep = Report(f"theorem-hypotheses({I.name})")
    e, f, g = I.e, I.f, I.g

    def morphism_ok(phi):
        def check(label):
            lhs = phi.apply_tensor(phi, I.delta[label])
            return lhs == I.delta_apply(phi.images[label])
        return check

    rep.per_label("f-intertwines-delta", "(f(x)f) o delta = delta o f",
                  I.basis.labels, morphism_ok(f))
    rep.per_label("e-intertwines-delta", "(e(x)e) o delta = delta o e",
                  I.basis.labels, morphism_ok(e))
    rep.per_label("commute", "f o e = e o f", I.basis.labels, I.commute_on)

    rep.per_label("annihilation", "(e-f)(D_1 + ... + D_p) = 0",
                  I.basis.labels_between(1, I.p),
                  lambda l: g.images[l].is_zero())
    rep.first_failure(
        "grading", "delta(D_n) supported in sum of D_i (x) D_(n-i), 0 < i < n",
        I.basis.labels_between(I.p + 1, I.basis.max_degree), I.grading_failure)

    if not I.ring.is_field:
        rep.add("kernel", "Ker delta contained in Ker(e-f)", NOT_CHECKED,
                f"ring {I.ring} is not a field")
        return rep
    rep.first_failure(
        "kernel", "Ker delta contained in Ker(e-f)", I.kernel(),
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
                 filtered: bool = False):
    """Add one check to ``rep`` per declaration ``(claim, statement,
    first_u, shift, failure)``.

    For each u from ``first_u`` up to the top degree the check tests
    ``y = g^(u-p+shift)(x)``, where x runs over the labels of degree u, or
    of degree <= u when ``filtered`` is set; declarations keep
    ``u-p+shift >= 0``.  ``failure(y)`` returns None when y passes,
    else the value to put in the witness.  It must be linear: the y that
    pass form a subspace (over ``Z``, the kernel of a map into a free
    module), as ``Prim``, ``Ker delta``, ``Ker(id + S)`` and ``0`` do.  A
    check whose scope holds no (label, u) compares nothing and is reported
    not-checked.

    Each degree d runs the chains of all its labels at once, level by
    level, on the block that g keeps for it (:meth:`GradedMap.block`,
    :meth:`DegreeBlock.levels`), for as long as some check still
    needs a level: level k holds the nonzero g^k(x) and serves every u
    with u - p + shift = k.  A zero y always passes, and no level holds
    one.  Where a check reads level k >= 1 over ``Z`` or a field, it tests
    only the vectors that :meth:`DegreeBlock._independent` keeps, the
    first basis of the level in label order; elsewhere it tests all of
    them.  Every vector of the level lies in the span of the kept ones,
    so the level passes when they do.  A failing level's first failing
    vector lies outside the span of the passing vectors before it, so it
    is kept: the first kept vector that fails is the level's first
    failing label.  Levels run in order of u, so the witness is the
    failure with the least (u, label position).  It names the label, or
    ``(label, u)`` in filtered scope.  The tested vectors of a level are
    boxed into Elements once, for every check that reads the level.
    """
    require_positive_p(p)
    basis = g.basis
    top = basis.max_degree
    # per check: the least u failed so far (top + 1 while none), its witness
    failed_u = [top + 1] * len(checks)
    witness = [None] * len(checks)
    lowest = 0 if filtered else min(check[2] for check in checks)
    for d in range(lowest, top + 1):
        # per check still open on degree d: the levels k = u - p + shift of
        # the u left to test
        todo = {}
        for i, (_, _, first_u, shift, _) in enumerate(checks):
            lo, hi = max(first_u, d), min(top if filtered else d,
                                          failed_u[i] - 1)
            if lo <= hi:
                todo[i] = (lo - p + shift, hi - p + shift)
        if not todo:
            continue
        block = g.block(d)
        for k, level in enumerate(block.levels()):
            tested = None
            for i, (first, last) in list(todo.items()):
                if k < first:
                    continue
                if tested is None:
                    tested = (range(len(level)) if k == 0 or block.steps is None
                              else block._independent([y for _, y, _ in level]))
                    boxes = {n: block.box(k, *level[n]) for n in tested}
                _, _, _, shift, failure = checks[i]
                bad = next(((n, value) for n in tested
                            if (value := failure(boxes[n])) is not None), None)
                if bad is not None:
                    n, value = bad
                    label, u = block.labels[level[n][0]], k + p - shift
                    failed_u[i] = u
                    witness[i] = witness_of((label, u) if filtered else label,
                                            value)
                if bad is not None or k == last:
                    del todo[i]
            if not todo:
                break
    for (claim, statement, first_u, _, _), bad in zip(checks, witness):
        if first_u > top or not basis.labels_between(
                0 if filtered else first_u, top):
            labels = "degree <= u" if filtered else "degree u"
            rep.add(claim, statement, NOT_CHECKED,
                    f"empty scope: no basis label of {labels} "
                    f"for {first_u} <= u <= {top}")
        else:
            rep.add(claim, statement, FAIL if bad else PASS, bad)


def verify_conclusions(I: PreCoalgebraInstance) -> Report:
    rep = Report(f"theorem-conclusions({I.name})")
    chain_checks(rep, I.g, I.p, (
        ("into-kernel", "(e-f)^(u-p)(D_u) contained in Ker delta", I.p + 1, 0,
         lambda y: _nonzero(I.delta_apply(y))),
        ("nilpotency", "(e-f)^(u-p+1)(D_u) = 0", I.p + 1, 1, _nonzero),
    ))
    return rep


def verify_theorem(I: PreCoalgebraInstance) -> list:
    """The reports of :func:`check_hypotheses` and, unless a hypothesis
    failed, of :func:`verify_conclusions`; after a failed hypothesis the
    conclusions are one not-checked check that names the first."""
    hypotheses = check_hypotheses(I)
    if hypotheses.ok():
        return [hypotheses, verify_conclusions(I)]
    rep = Report(f"theorem-conclusions({I.name})")
    rep.add("conclusions", "skipped: a hypothesis failed", NOT_CHECKED,
            f"hypothesis {hypotheses.failures()[0].claim} failed")
    return [hypotheses, rep]


def _powers(phi: GradedMap, K: int):
    """[phi^0, ..., phi^K], each power composed onto the one before."""
    pows = [GradedMap.identity(phi.basis, phi.ring), phi]
    for _ in range(K - 1):
        pows.append(phi.compose(pows[-1]))
    return pows[:K + 1]


def binomial_identity_check(I: PreCoalgebraInstance, K: int) -> Report:
    """Operator-level binomial expansion of h^k = (e(x)e - f(x)f)^k.

    Each identity is decided by :func:`tensor_sum_vanishes` as one operator
    T = sum_i c_i (A_i (x) B_i) being zero.  That is exact over every ring,
    zero divisors included: the a (x) b are a basis of D (x) D, so T = 0
    exactly when sum_i c_i A_i(x)[a] B_i vanishes for every (x, a).  Each
    term of h^k applies one map A to both factors, so h^k is carried as
    terms (c, A) for c (A (x) A), from (1, id); a step maps each to
    (c, e o A) and (-c, f o A) and merges equal maps: no coefficient comes
    from ``binomial``.

    ``power-commutation`` follows from the precondition: with g = e - f,
    f o e = e o f gives g o e = e o e - f o e = e o g, so once the
    precondition passes it passes too.  It is still compared, so the
    report states it.
    """
    rep = Report(f"binomial-identity({I.name})")
    e, f, g = I.e, I.f, I.g

    if not all(I.commute_on(l) for l in I.basis.labels):
        rep.add("precondition", "f o e = e o f", FAIL, "e and f do not commute")
        return rep
    rep.add("precondition", "f o e = e o f", PASS)

    e_pows, f_pows, g_pows = _powers(e, K), _powers(f, K), _powers(g, K)

    def after(a_pows, i, b_pows, j):
        """a^i o b^j, composed only when neither exponent is 0."""
        return (b_pows[j] if i == 0 else a_pows[i] if j == 0
                else a_pows[i].compose(b_pows[j]))

    # g o e = e o g gives every g^i o e^j = e^j o g^i, and the pairs with
    # i = 0 or j = 0 hold trivially, so one comparison decides the check
    # and (1, 1) is its first failing pair
    ge, eg = g.compose(e), e.compose(g)
    commute = K == 0 or ge == eg
    rep.add("power-commutation", "g^i o e^j = e^j o g^i",
            PASS if commute else FAIL, None if commute else witness_of((1, 1)))

    one, neg = I.ring._one, I.ring._neg
    # (g(x)f) o (e(x)g) - (e(x)g) o (g(x)f)
    lemma_ok = tensor_sum_vanishes(I.basis, I.ring, (
        (one, ge, f.compose(g)), (neg(one), eg, g.compose(f))))
    rep.add("tensor-commutation", "(g(x)f) o (e(x)g) = (e(x)g) o (g(x)f)",
            PASS if lemma_ok else FAIL,
            None if lemma_ok else "tensor factors do not commute")

    bad = None
    h_pow = [(one, e_pows[0])]
    for k in range(K + 1):
        if k > 0:
            # (e(x)e - f(x)f) o h^(k-1), terms with equal maps merged
            images = [term for c, A in h_pow
                      for term in ((c, e.compose(A)), (neg(c), f.compose(A)))]
            h_pow = []
            for c, A in images:
                n = next((n for n, (_, B) in enumerate(h_pow) if B == A), None)
                if n is None:
                    h_pow.append((c, A))
                else:
                    h_pow[n] = (I.ring._add(h_pow[n][0], c), A)
        # minus the terms C(k,r) (e^(k-r) o g^r) (x) (f^r o g^(k-r))
        right = [(neg(I.ring._embed_int(binomial(k, r))),
                  after(e_pows, k - r, g_pows, r),
                  after(f_pows, r, g_pows, k - r)) for r in range(k + 1)]
        if not tensor_sum_vanishes(I.basis, I.ring,
                                   [(c, A, A) for c, A in h_pow] + right):
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
    image = phi.images[label]
    if phi.apply_tensor(phi, H.coproduct_of_label(label)) != H.coproduct(image):
        return False
    return H.counit(image) == H.counit_of_label(label)


def _non_primitive(H: HopfPresentation):
    """A chain check's failure for "y is primitive"; ``is_primitive`` is
    looked up at call time, so a wrapper installed on it is seen."""
    return lambda y: None if is_primitive(H, y) else y


def _not_killed_by_id_plus_S(H: HopfPresentation):
    """A chain check's failure for "(id + S)(y) = 0", tested as the lincomb
    y + S(y), so the map id + S is never built."""
    return lambda y: _nonzero(Element.lincomb(H.basis, H.ring, (
        (H.ring._one, y, None), (H.ring._one, H.antipode()(y), None))))


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
    # e = id and f = S^2 step the one id - S^2 of H, and its kept blocks
    g = (H.id_minus_antipode_squared()
         if e.is_identity and f is H.antipode_squared() else e - f)
    rep.per_label("annihilation", "(e-f) vanishes on degrees <= p",
                  H.basis.labels_up_to(p),
                  lambda l: g.images[l].is_zero())
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
    g = H.id_minus_antipode_squared()
    chain_checks(rep, g, 1, (
        ("into-primitives", "(id-S^2)^(u-1)(H_u) contained in Prim", 1, 0,
         _non_primitive(H)),
        ("killed-by-id-plus-S", "((id+S) o (id-S^2)^(u-1))(H_u) = 0", 1, 0,
         _not_killed_by_id_plus_S(H)),
        ("nilpotency", "(id-S^2)^u(H_u) = 0", 1, 1, _nonzero),
    ))
    return rep


def suite_lowered_exponent(H: HopfPresentation, p: int) -> Report:
    """Lowered-exponent corollary: if (id-S^2) kills H_2..H_p then
    (id-S^2)^(u-p+1) kills degrees <= u, with primitives in between."""
    require_positive_p(p)
    H.require_connected()
    rep = Report(f"lowered-exponent({H.name},p={p})")
    g = H.id_minus_antipode_squared()
    N = H.max_degree

    def premise_failure(label):
        y = g.images[label]
        return None if y.is_zero() else witness_of(label, y)

    premise_ok = rep.first_failure(
        "premise", "(id-S^2) annihilates H_i for 2 <= i <= p",
        H.basis.labels_between(2, p), premise_failure)

    if p == 2 and 2 <= N:
        degree_one = H.basis.labels_of_degree(1)
        pairs = itertools.product(degree_one, repeat=2)
        comm_bad = next((witness_of((a, b)) for a, b in pairs
                         if H.product_of_labels(a, b) != H.product_of_labels(b, a)),
                        None)
        statement = "ab = ba for all degree-1 basis pairs (sufficient condition)"
        if comm_bad is None:
            rep.add("degree-1-commutativity", statement, PASS,
                    None if degree_one else VACUOUS)
        else:
            rep.add("degree-1-commutativity", statement, NOT_CHECKED,
                    f"condition absent ({comm_bad}); it is sufficient, not necessary")

    if not premise_ok:
        rep.add("conclusions", "skipped: premise failed", NOT_CHECKED)
        return rep

    chain_checks(rep, g, p, (
        ("into-primitives", "(id-S^2)^(u-p) of degrees <= u is primitive",
         p + 1, 0, _non_primitive(H)),
        ("killed-by-id-plus-S",
         "((id+S) o (id-S^2)^(u-p)) annihilates degrees <= u", p + 1, 0,
         _not_killed_by_id_plus_S(H)),
        ("nilpotency", "(id-S^2)^(u-p+1) annihilates degrees <= u", p, 1,
         _nonzero),
    ), filtered=True)
    return rep


def suite_antipode_props(H: HopfPresentation) -> Report:
    """Basic antipode facts: S^2 is a coalgebra morphism, S fixes the unit,
    S negates primitives, S reverses degree-1 products."""
    rep = Report(f"antipode-props({H.name})")
    S, S2 = H.antipode(), H.antipode_squared()
    labels = H.basis.labels

    rep.per_label("squared-coalgebra-morphism",
                  "S^2 is a coalgebra morphism", labels,
                  lambda l: _coalgebra_endo_ok(H, S2, l))
    unit_image = S.images[H.unit_label]
    unit_ok = unit_image == H.unit()
    rep.add("unit-fixed", "S(1) = 1", PASS if unit_ok else FAIL,
            None if unit_ok else witness_of(H.unit_label, unit_image))

    if H.is_connected():
        rep.per_label("degree-1-negated", "S(x) = -x on degree 1",
                      H.basis.labels_of_degree(1),
                      lambda l: S.images[l] == -H.element(l))
        rep.per_label("degree-1-involutive", "S^2(x) = x on degree 1",
                      H.basis.labels_of_degree(1),
                      lambda l: S2.images[l] == H.element(l))
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

        # on a label of positive degree, coproduct(x) - x(x)1 - 1(x)x is
        # delta(x), whose bidegrees are decided once beside it
        rep.first_failure("coproduct-shape",
                          "coproduct(x) = 1(x)x + x(x)1 + middle terms",
                          H.basis.labels_between(1, H.max_degree),
                          lambda l: delta_grading_failure(H, l))
    else:
        rep.add("degree-1-negated", "S(x) = -x on degree 1", NOT_CHECKED,
                "presentation is not connected")

    nonident = next((l for l in labels
                     if S2.images[l] != H.element(l)), None)
    if nonident is None:
        rep.add("squared-antipode", "S^2 = id on all basis labels", PASS)
    else:
        rep.add("squared-antipode", "S^2 = id on all basis labels",
                EXPECTED_NONIDENTITY,
                witness_of(nonident, S2.images[nonident]))
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


def _require_taft(H: HopfPresentation) -> int:
    """The rank n of H's degree 0, when H has every table of ``zoo.taft(n)``
    (its exported spec, line by line); else a StructuralError names the
    first line that differs."""
    n = H.basis.rank(0)
    if not is_prime(n):
        raise StructuralError(f"{H.name} is not a Taft presentation: its "
                              f"degree 0 has rank {n}, not a prime")
    # every line but the header and the name
    mine, taft = (export_presentation(P).splitlines()[2:]
                  for P in (H, zoo.taft(n)))
    for line, expected in itertools.zip_longest(mine, taft):
        if line != expected:
            raise StructuralError(f"{H.name} is not the Taft algebra taft{n}: "
                                  f"found {line!r} where it has {expected!r}")
    return n


def suite_taft_remark(H: HopfPresentation, K: int = 10) -> Report:
    """The Taft algebra's antipode square acts on the skew-primitive x by a
    nontrivial root of unity, so no power of id - S^2 kills it.  H must
    present a Taft algebra (:func:`_require_taft`)."""
    n = _require_taft(H)
    rep = Report(f"taft-remark(n={n})")
    rep.checks.extend(H.verify_antipode_axioms().checks)

    S2 = H.antipode_squared()
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

    g = H.id_minus_antipode_squared()
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
