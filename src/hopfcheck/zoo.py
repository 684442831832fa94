"""Built-in example algebras.

* a free bialgebra construction (word basis, concatenation product,
  multiplicative coproduct) with the three-generator a, b, c example as its
  showcase,
* tensor and shuffle algebras on a finite alphabet,
* the permutation Hopf algebra in its fundamental basis (shifted-shuffle
  product, standardized-deconcatenation coproduct),
* the Taft algebras, with explicit antipode tables (they are not connected,
  so the recursion does not apply).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConstructionError, ResourceGuardError, StructuralError
from .gmod import Element, GradedBasis, Tensor2Element
from .hopf import HopfPresentation
from .rings import Ring, cyclotomic_ring

FREE_MAX_DEGREE = 8
FQSYM_MAX_DEGREE = 6

UNIT = "1"


def _word_label(word: str) -> str:
    return word if word else UNIT


def _word_of(label: str) -> str:
    return "" if label == UNIT else label


# ---------------------------------------------------------------------------
# free bialgebras (concatenation product, multiplicative coproduct)
# ---------------------------------------------------------------------------

def free_bialgebra(generators, ring: Ring, max_degree: int,
                   name: str = "free") -> HopfPresentation:
    """Free algebra on graded generators with a prescribed coproduct each.

    ``generators`` is a list of ``(letter, degree, cospec)`` where cospec is
    either the string ``"primitive"`` or a list of ``(coeff, left, right)``
    terms over words in the generators (with "1" for the empty word).  The
    coproduct of a word is the product of its letters' coproducts.  Counit
    and coassociativity are checked on every generator at construction.
    """
    if max_degree > FREE_MAX_DEGREE:
        raise ResourceGuardError(
            f"free algebras are guarded at degree {FREE_MAX_DEGREE}")
    degs = {}
    for letter, degree, _ in generators:
        if len(letter) != 1 or letter == UNIT:
            raise ConstructionError(f"bad generator letter {letter!r}")
        if degree < 1:
            raise ConstructionError(f"generator {letter!r} must have degree >= 1")
        degs[letter] = degree

    words_by_degree = [[""]]
    for n in range(1, max_degree + 1):
        words_by_degree.append(
            [letter + w for letter, d in degs.items() if d <= n
             for w in words_by_degree[n - d]])
    basis = GradedBasis([[_word_label(w) for w in level]
                         for level in words_by_degree])

    def product_rule(l1, l2):
        word = _word_of(l1) + _word_of(l2)
        if sum(degs[ch] for ch in word) > max_degree:
            return None
        return Element.basis_vector(basis, ring, _word_label(word))

    gen_coproducts = {}
    for letter, degree, cospec in generators:
        if cospec == "primitive":
            terms = [(1, letter, UNIT), (1, UNIT, letter)]
        else:
            terms = cospec
        coeffs = {}
        for coeff, left, right in terms:
            key = (left, right)
            total = (sum(degs[ch] for ch in _word_of(left))
                     + sum(degs[ch] for ch in _word_of(right)))
            if total != degree:
                raise ConstructionError(
                    f"coproduct term {key} of {letter!r} has degree {total}, "
                    f"expected {degree}")
            c = ring.embed(coeff) if isinstance(coeff, int) else ring.element(coeff)
            coeffs[key] = coeffs.get(key, ring.zero) + c
        gen_coproducts[letter] = Tensor2Element(basis, ring, coeffs)

    def coproduct_rule(label):
        # multiplicative: coproduct(w ch) = coproduct(w) * coproduct(ch),
        # with the shorter word's coproduct taken from the cached table
        word = _word_of(label)
        if not word:
            return H.unit().tensor(H.unit())
        return H.t2_product(H.coproduct_of_label(_word_label(word[:-1])),
                            gen_coproducts[word[-1]])

    H = HopfPresentation(name, basis, ring, product_rule, coproduct_rule,
                         {UNIT: ring.one}, UNIT)
    _check_generators(H, [g[0] for g in generators])
    return H


def _check_generators(H: HopfPresentation, letters):
    """Counit and coassociativity on each generator, at construction time."""
    for letter in letters:
        if not (H.counit_holds_on(letter, left=True)
                and H.counit_holds_on(letter, left=False)):
            raise ConstructionError(
                f"generator {letter!r}: coproduct violates the counit axiom")
        if not H.coassociative_on(letter):
            raise ConstructionError(
                f"generator {letter!r}: coproduct is not coassociative")


def free_example_abc(ring: Ring, max_degree: int) -> HopfPresentation:
    """Free algebra on a, b (degree 1) and c (degree 2) with
    coproduct(c) = c(x)1 + a(x)b + 1(x)c.  The standard counterexample to
    lowering the nilpotency exponent of id - S^2 at degree 2."""
    if max_degree < 2:
        raise ConstructionError("the a,b,c example needs max degree >= 2")
    return free_bialgebra(
        [("a", 1, "primitive"), ("b", 1, "primitive"),
         ("c", 2, [(1, "c", UNIT), (1, "a", "b"), (1, UNIT, "c")])],
        ring, max_degree, name="abc")


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def tensor_algebra(rank: int, ring: Ring, max_degree: int) -> HopfPresentation:
    """Tensor algebra on ``rank`` primitive letters (cocommutative)."""
    if rank < 1 or rank > len(_LETTERS):
        raise ConstructionError(f"rank must be in [1, {len(_LETTERS)}]")
    gens = [(ch, 1, "primitive") for ch in _LETTERS[:rank]]
    return free_bialgebra(gens, ring, max_degree, name=f"tensor{rank}")


@lru_cache(maxsize=None)
def _shuffle_words(u: str, v: str):
    """Multiset of interleavings of u and v, as a tuple of (word, count)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, c in _shuffle_words(u[1:], v):
        out[u[0] + w] = out.get(u[0] + w, 0) + c
    for w, c in _shuffle_words(u, v[1:]):
        out[v[0] + w] = out.get(v[0] + w, 0) + c
    return tuple(sorted(out.items()))


def shuffle_algebra(rank: int, ring: Ring, max_degree: int) -> HopfPresentation:
    """Shuffle product, deconcatenation coproduct (commutative)."""
    if rank < 1 or rank > len(_LETTERS):
        raise ConstructionError(f"rank must be in [1, {len(_LETTERS)}]")
    if max_degree > FREE_MAX_DEGREE:
        raise ResourceGuardError(
            f"free algebras are guarded at degree {FREE_MAX_DEGREE}")
    letters = _LETTERS[:rank]
    words_by_degree = [[""]]
    for n in range(1, max_degree + 1):
        words_by_degree.append(
            [ch + w for ch in letters for w in words_by_degree[n - 1]])
    basis = GradedBasis([[_word_label(w) for w in level]
                         for level in words_by_degree])

    def product_rule(l1, l2):
        u, v = _word_of(l1), _word_of(l2)
        if len(u) + len(v) > max_degree:
            return None
        coeffs = {_word_label(w): ring.embed(c) for w, c in _shuffle_words(u, v)}
        return Element(basis, ring, coeffs)

    def coproduct_rule(label):
        w = _word_of(label)
        coeffs = {}
        for i in range(len(w) + 1):
            key = (_word_label(w[:i]), _word_label(w[i:]))
            coeffs[key] = coeffs.get(key, ring.zero) + ring.one
        return Tensor2Element(basis, ring, coeffs)

    return HopfPresentation(f"shuffle{rank}", basis, ring, product_rule,
                            coproduct_rule, {UNIT: ring.one}, UNIT)


# ---------------------------------------------------------------------------
# permutations: fundamental basis, shifted shuffle / deconcatenation
# ---------------------------------------------------------------------------

FQSYM_UNIT = "e"


def _perm_label(perm) -> str:
    return "".join(str(v) for v in perm) if perm else FQSYM_UNIT


def _perm_of(label: str):
    return () if label == FQSYM_UNIT else tuple(int(ch) for ch in label)


def _standardize(seq):
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    ranks = [0] * len(seq)
    for r, i in enumerate(order):
        ranks[i] = r + 1
    return tuple(ranks)


@lru_cache(maxsize=None)
def _interleavings(u, v):
    if not u:
        return (v,)
    if not v:
        return (u,)
    return tuple((u[0],) + w for w in _interleavings(u[1:], v)) + \
        tuple((v[0],) + w for w in _interleavings(u, v[1:]))


def _permutations(n):
    if n == 0:
        return [()]
    out = []
    for rest in _permutations(n - 1):
        for i in range(n):
            out.append(rest[:i] + (n,) + rest[i:])
    return sorted(out)


def fqsym(ring: Ring, max_degree: int,
          guard: int = FQSYM_MAX_DEGREE) -> HopfPresentation:
    """The permutation Hopf algebra in its fundamental basis.

    Degree-n component has the n! permutations of {1..n} as its basis; the
    product of two basis elements is the sum over the shifted shuffle of
    their words, the coproduct deconcatenates and standardizes.
    """
    if max_degree > guard:
        raise ResourceGuardError(
            f"fqsym is guarded at degree {guard} (degree-n rank is n!)")
    basis = GradedBasis([[_perm_label(p) for p in _permutations(n)]
                         for n in range(max_degree + 1)])

    def product_rule(l1, l2):
        sigma, tau = _perm_of(l1), _perm_of(l2)
        if len(sigma) + len(tau) > max_degree:
            return None
        shifted = tuple(t + len(sigma) for t in tau)
        coeffs = {}
        for w in _interleavings(sigma, shifted):
            key = _perm_label(w)
            coeffs[key] = coeffs.get(key, ring.zero) + ring.one
        return Element(basis, ring, coeffs)

    def coproduct_rule(label):
        sigma = _perm_of(label)
        coeffs = {}
        for k in range(len(sigma) + 1):
            key = (_perm_label(_standardize(sigma[:k])),
                   _perm_label(_standardize(sigma[k:])))
            coeffs[key] = coeffs.get(key, ring.zero) + ring.one
        return Tensor2Element(basis, ring, coeffs)

    return HopfPresentation("fqsym", basis, ring, product_rule,
                            coproduct_rule, {FQSYM_UNIT: ring.one}, FQSYM_UNIT)


# ---------------------------------------------------------------------------
# Taft algebras
# ---------------------------------------------------------------------------

def _taft_label(i, j):
    return f"a{i}x{j}"


def taft(n: int) -> HopfPresentation:
    """Taft algebra of order n (prime), over Z[q]/(1 + q + ... + q^(n-1)).

    Basis a^i x^j (0 <= i, j < n) graded by the x-exponent; relations
    a^n = 1, x^n = 0, x a = q a x; the coproduct is the algebra map with
    a grouplike and x skew-primitive (coproduct(x) = x(x)1 + a(x)x).  The
    antipode table S(a) = a^(n-1), S(x) = -a^(n-1) x is explicit: the
    degree-0 component has rank n, so the presentation is not connected.
    """
    ring = cyclotomic_ring(n)
    q = ring.element([0, 1])
    basis = GradedBasis([[_taft_label(i, j) for i in range(n)]
                         for j in range(n)])
    unit = _taft_label(0, 0)

    def parse(label):
        i, j = label[1:].split("x")
        return int(i), int(j)

    def product_rule(l1, l2):
        i, j = parse(l1)
        k, l = parse(l2)
        if j + l >= n:
            return Element.zero(basis, ring)
        coeff = q ** (j * k)
        return Element(basis, ring, {_taft_label((i + k) % n, j + l): coeff})

    a, x = _taft_label(1, 0), _taft_label(0, 1)
    cop_a = Tensor2Element(basis, ring, {(a, a): ring.one})
    cop_x = Tensor2Element(basis, ring, {(x, unit): ring.one, (a, x): ring.one})

    def coproduct_rule(label):
        # the coproduct is an algebra map: coproduct(a)^i * coproduct(x)^j
        i, j = parse(label)
        acc = H.unit().tensor(H.unit())
        for factor in [cop_a] * i + [cop_x] * j:
            acc = H.t2_product(acc, factor)
        return acc

    s_a = Element(basis, ring, {_taft_label(n - 1, 0): ring.one})
    s_x = Element(basis, ring, {_taft_label(n - 1, 1): -ring.one})

    def antipode_rule(label):
        i, j = parse(label)
        # S(a^i x^j) = S(x)^j * S(a)^i (anti-homomorphism)
        out = H.unit()
        for factor in [s_x] * j + [s_a] * i:
            out = H.product(out, factor)
        return out

    counit0 = {_taft_label(i, 0): ring.one for i in range(n)}
    H = HopfPresentation(f"taft{n}", basis, ring, product_rule,
                         coproduct_rule, counit0, unit,
                         antipode_rule=antipode_rule, product_total=True)
    return H


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CONNECTED_ZOO = ("abc", "tensor", "shuffle", "fqsym")
ZOO = CONNECTED_ZOO + ("taft",)


def build_algebra(name: str, ring: Ring, max_degree: int, rank: int = 2,
                  taft_n: int = 3) -> HopfPresentation:
    if name == "abc":
        return free_example_abc(ring, max_degree)
    if name == "tensor":
        return tensor_algebra(rank, ring, max_degree)
    if name == "shuffle":
        return shuffle_algebra(rank, ring, max_degree)
    if name == "fqsym":
        return fqsym(ring, max_degree)
    if name == "taft":
        return taft(taft_n)
    raise StructuralError(f"unknown zoo algebra {name!r}")
