"""Algebra spec files: a line-based text format for presentations.

Two bodies are supported after the common header (ring, maxdeg):

* ``tables``: explicit basis, counit, product and coproduct tables (and an
  optional antipode table).  This is what ``export`` emits and what
  round-trips any presentation.
* ``free``: a generator list with degrees and generator coproducts,
  compiled through the free-bialgebra construction.

Coefficients use the ring's own token syntax (no whitespace); labels are
whitespace-free opaque strings.  The parser builds each ``product`` and
``coproduct`` line as a row on label indices, the terms ``(k, raw)`` or
``(a, b, raw)`` summed with no zero, under its line-numbered checks (an
unknown label, a product not homogeneous, a coproduct off its degree);
the presentation's rules return those rows, and no label-keyed element
is built for them.  Example::

    hopf-spec 1
    name abc
    ring Z
    maxdeg 3
    tables
    unit 1
    basis 0 1
    basis 1 a b
    counit 1 = 1
    product a b = 1 ab
    coproduct c = 1 c 1 + 1 a b + 1 1 c
"""

from __future__ import annotations

import re

from .errors import (ConstructionError, SpecFileError, StructuralError,
                     TruncationError)
from .gmod import Element, GradedBasis, Tensor2Element
from .hopf import HopfPresentation
from .rings import ring_from_string
from .zoo import free_bialgebra

_LABEL_RE = re.compile(r"^[^\s=+#]+$")


def _check_label(label: str):
    if not _LABEL_RE.match(label):
        raise StructuralError(f"label {label!r} not serializable")


def _format_element(x: Element) -> str:
    if x.is_zero():
        return "0"
    terms = sorted(x.coeffs.items(), key=lambda kv: kv[0])
    return " + ".join(f"{x.ring.format_value(c)} {l}" for l, c in terms)


def _format_tensor(t: Tensor2Element) -> str:
    if t.is_zero():
        return "0"
    terms = sorted(t.coeffs.items(), key=lambda kv: kv[0])
    return " + ".join(f"{t.ring.format_value(c)} {a} {b}"
                      for (a, b), c in terms)


def export_presentation(H: HopfPresentation) -> str:
    """Serialize all structure tables of H up to its truncation degree."""
    for label in H.basis.labels:
        _check_label(label)
    lines = ["hopf-spec 1", f"name {H.name}", f"ring {H.ring!r}",
             f"maxdeg {H.max_degree}", "tables", f"unit {H.unit_label}"]
    for d in range(H.max_degree + 1):
        lines.append(f"basis {d} " + " ".join(H.basis.labels_of_degree(d)))
    for label in H.basis.labels_of_degree(0):
        value = H.counit_of_label(label)
        lines.append(f"counit {label} = {H.ring.format_value(value.value)}")
    for l1 in H.basis.labels:
        for l2 in H.basis.labels:
            try:
                prod = H.product_of_labels(l1, l2)
            except TruncationError:
                continue
            lines.append(f"product {l1} {l2} = {_format_element(prod)}")
    for label in H.basis.labels:
        lines.append(
            f"coproduct {label} = {_format_tensor(H.coproduct_of_label(label))}")
    if H.has_explicit_antipode():
        S = H.antipode()
        for label in H.basis.labels:
            lines.append(
                f"antipode {label} = {_format_element(S.images[label])}")
    return "\n".join(lines) + "\n"


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.name = None
        self.ring = None
        self.maxdeg = None
        self.body = None
        self.unit = None
        self.basis_rows = {}
        self.counit_rows = {}
        self.product_rows = {}
        self.coproduct_rows = {}
        self.antipode_rows = {}
        self.generators = []

    def fail(self, lineno, msg):
        raise SpecFileError(msg, line=lineno)

    def parse(self) -> HopfPresentation:
        header_done = False
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            key = tokens[0]
            if not header_done:
                if lineno == 1 or (key == "hopf-spec"):
                    if key != "hopf-spec" or tokens[1:] != ["1"]:
                        self.fail(lineno, "expected header 'hopf-spec 1'")
                    header_done = True
                    continue
                self.fail(lineno, "expected header 'hopf-spec 1'")
            handler = getattr(self, f"_line_{key.replace('-', '_')}", None)
            if handler is None:
                self.fail(lineno, f"unknown directive {key!r}")
            handler(lineno, tokens[1:], line)
        return self.build()

    # header ---------------------------------------------------------------
    def _line_name(self, lineno, args, line):
        self.name = args[0] if args else self.fail(lineno, "missing name")

    def _line_ring(self, lineno, args, line):
        try:
            self.ring = ring_from_string(" ".join(args))
        except StructuralError as exc:
            self.fail(lineno, str(exc))

    def _line_maxdeg(self, lineno, args, line):
        try:
            self.maxdeg = int(args[0])
        except (IndexError, ValueError):
            self.fail(lineno, "maxdeg needs an integer")
        if self.maxdeg < 0:
            self.fail(lineno, "maxdeg must be >= 0")

    def _line_tables(self, lineno, args, line):
        self.body = "tables"

    def _line_free(self, lineno, args, line):
        self.body = "free"

    # tables body ----------------------------------------------------------
    def _need(self, lineno, what, value):
        if value is None:
            self.fail(lineno, f"{what} must be declared first")
        return value

    def _line_unit(self, lineno, args, line):
        if len(args) != 1:
            self.fail(lineno, "unit needs exactly one label")
        self.unit = args[0]

    def _line_basis(self, lineno, args, line):
        if not args:
            self.fail(lineno, "basis needs a degree and labels")
        try:
            degree = int(args[0])
        except ValueError:
            self.fail(lineno, "basis needs an integer degree")
        if degree in self.basis_rows:
            self.fail(lineno, f"duplicate basis row for degree {degree}")
        seen = set()
        for label in args[1:]:
            if label in seen:
                self.fail(lineno, f"duplicate label {label!r}")
            seen.add(label)
        self.basis_rows[degree] = (lineno, args[1:])

    def _split_eq(self, lineno, line):
        if "=" not in line:
            self.fail(lineno, "expected '='")
        head, _, tail = line.partition("=")
        return head.split()[1:], tail.strip()

    def _parse_terms(self, lineno, text, arity):
        if text == "0":
            return []
        out = []
        for term in text.split("+"):
            tokens = term.split()
            if len(tokens) != arity + 1:
                self.fail(lineno, f"bad term {term.strip()!r}")
            try:
                coeff = self._need(lineno, "ring", self.ring)._parse(tokens[0])
            except (StructuralError, ValueError) as exc:
                self.fail(lineno, f"bad coefficient {tokens[0]!r}: {exc}")
            out.append((coeff, tuple(tokens[1:])))
        return out

    def _entry(self, lineno, line, rows, what, arity):
        """(key, text) of a table line naming ``arity`` labels before '=':
        the labels (one label alone) and the text after '='.  Fail when
        the line names the wrong number of labels or an earlier line gave
        the same entry."""
        head, tail = self._split_eq(lineno, line)
        if len(head) != arity:
            self.fail(lineno, f"{what} needs "
                              f"{'one label' if arity == 1 else 'two labels'}")
        key = tuple(head) if arity > 1 else head[0]
        if key in rows:
            self.fail(lineno, f"repeated {what} entry for {' '.join(head)}")
        return key, tail

    def _line_counit(self, lineno, args, line):
        key, tail = self._entry(lineno, line, self.counit_rows, "counit", 1)
        try:
            self.counit_rows[key] = self._need(lineno, "ring", self.ring)._parse(tail)
        except (StructuralError, ValueError) as exc:
            self.fail(lineno, f"bad coefficient: {exc}")

    def _line_product(self, lineno, args, line):
        key, tail = self._entry(lineno, line, self.product_rows, "product", 2)
        self.product_rows[key] = (lineno, self._parse_terms(lineno, tail, 1))

    def _line_coproduct(self, lineno, args, line):
        key, tail = self._entry(lineno, line, self.coproduct_rows, "coproduct", 1)
        self.coproduct_rows[key] = (lineno, self._parse_terms(lineno, tail, 2))

    def _line_antipode(self, lineno, args, line):
        key, tail = self._entry(lineno, line, self.antipode_rows, "antipode", 1)
        self.antipode_rows[key] = (lineno, self._parse_terms(lineno, tail, 1))

    # free body ------------------------------------------------------------
    def _line_generator(self, lineno, args, line):
        head, tail = self._split_eq(lineno, line)
        if len(head) != 2:
            self.fail(lineno, "generator needs a letter and a degree")
        try:
            degree = int(head[1])
        except ValueError:
            self.fail(lineno, "generator degree must be an integer")
        if tail == "primitive":
            self.generators.append((head[0], degree, "primitive"))
        else:
            terms = self._parse_terms(lineno, tail, 2)
            self.generators.append(
                (head[0], degree,
                 [(c, pair[0], pair[1]) for c, pair in terms]))

    # assembly -------------------------------------------------------------
    def build(self) -> HopfPresentation:
        if self.ring is None:
            raise SpecFileError("no ring declared")
        if self.maxdeg is None:
            raise SpecFileError("no maxdeg declared")
        name = self.name or "specfile"
        if self.body == "free":
            try:
                return free_bialgebra(self.generators, self.ring, self.maxdeg,
                                      name=name)
            except (ConstructionError, StructuralError) as exc:
                raise SpecFileError(str(exc)) from exc
        if self.body != "tables":
            raise SpecFileError("no 'tables' or 'free' body")
        if self.unit is None:
            raise SpecFileError("no unit declared")
        for d, (lineno, _) in self.basis_rows.items():
            if not 0 <= d <= self.maxdeg:
                self.fail(lineno, f"basis degree {d} outside 0..{self.maxdeg}")
        degrees = [self.basis_rows.get(d, (None, []))[1]
                   for d in range(self.maxdeg + 1)]
        try:
            basis = GradedBasis(degrees)
        except StructuralError as exc:
            raise SpecFileError(str(exc)) from exc
        ring, labels, zero = self.ring, basis.labels, self.ring._zero
        index = {l: i for i, l in enumerate(labels)}
        deg, n = [basis.degree_of(l) for l in labels], len(labels)

        def row(lineno, terms):
            """The parsed terms summed on label indices, with no zero: the
            terms (k, raw), or (a, b, raw) of two labels."""
            coeffs, add = {}, ring._add
            try:
                for coeff, names in terms:
                    key = tuple(map(index.__getitem__, names))
                    coeffs[key] = add(coeffs[key], coeff) if key in coeffs else coeff
            except KeyError as exc:
                self.fail(lineno, f"unknown label {exc.args[0]!r}")
            return [(*key, v) for key, v in coeffs.items() if v != zero]

        products = {}
        for (l1, l2), (lineno, terms) in self.product_rows.items():
            for label in (l1, l2):
                if label not in index:
                    self.fail(lineno, f"unknown label {label!r}")
            i, j = index[l1], index[l2]
            products[i * n + j] = value = row(lineno, terms)
            d = deg[i] + deg[j]
            if d <= self.maxdeg and any(deg[k] != d for k, _ in value):
                self.fail(lineno, f"product {l1} {l2} not homogeneous of degree {d}")
        coproducts = {}
        for label, (lineno, terms) in self.coproduct_rows.items():
            if label not in index:
                self.fail(lineno, f"unknown label {label!r}")
            i = index[label]
            coproducts[i] = value = row(lineno, terms)
            if any(deg[a] + deg[b] != deg[i] for a, b, _ in value):
                self.fail(lineno, f"coproduct of {label!r} has wrong total degree")
        missing = [l for l in labels if index[l] not in coproducts]
        if missing:
            raise SpecFileError(f"coproduct missing for labels {missing[:3]}")
        antipode = None
        if self.antipode_rows:
            antipode = {label: Element._of(basis, ring, {
                            labels[k]: v for k, v in row(lineno, terms)})
                        for label, (lineno, terms) in self.antipode_rows.items()}
            missing = [l for l in labels if l not in antipode]
            if missing:
                raise SpecFileError(f"antipode missing for labels {missing[:3]}")
        counit0 = {}
        for label, value in self.counit_rows.items():
            if label not in basis or basis.degree_of(label) != 0:
                raise SpecFileError(f"counit label {label!r} must have degree 0")
            counit0[label] = value
        # checked above, with line numbers; a pair with no line has no entry
        return HopfPresentation(
            name, basis, ring, lambda i, j: products.get(i * n + j),
            coproducts.__getitem__, counit0, self.unit,
            antipode_rule=(antipode.get if antipode else None),
            product_total=any(deg[k // n] + deg[k % n] > self.maxdeg
                              for k in products))


def parse_presentation(text: str) -> HopfPresentation:
    return _Parser(text).parse()


def parse_presentation_file(path) -> HopfPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())
