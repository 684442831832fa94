"""Spec-file export/parse: round trips and validation errors."""

import pytest

from hopfcheck.errors import SpecFileError, TruncationError
from hopfcheck.rings import ZZ, ring_from_string
from hopfcheck.specfile import export_presentation, parse_presentation
from hopfcheck.zoo import ZOO, build_algebra, free_example_abc

TABLES_HEADER = """hopf-spec 1
name tiny
ring Z
maxdeg 1
tables
unit 1
basis 0 1
basis 1 x
counit 1 = 1
product 1 1 = 1 1
product 1 x = 1 x
product x 1 = 1 x
coproduct 1 = 1 1 1
coproduct x = 1 x 1 + 1 1 x
"""

FREE_ABC = """hopf-spec 1
name abc
ring Z
maxdeg 3
free
generator a 1 = primitive
generator b 1 = primitive
generator c 2 = 1 c 1 + 1 a b + 1 1 c
"""


def suite_fingerprint(H):
    return (H.verify_bialgebra().to_dict(),
            H.verify_antipode_axioms().to_dict(),
            {l: sorted((k, repr(img.coeff(k).value)) for k in img.coeffs)
             for l, img in H.antipode().images.items()})


@pytest.mark.parametrize("name", ZOO)
def test_round_trip_is_suite_identical(name):
    H = build_algebra(name, ZZ, 3)
    H2 = parse_presentation(export_presentation(H))
    assert suite_fingerprint(H2) == suite_fingerprint(H)


def test_round_trip_is_textually_stable():
    H = free_example_abc(ZZ, 3)
    text = export_presentation(H)
    assert export_presentation(parse_presentation(text)) == text


def test_parse_minimal_tables():
    H = parse_presentation(TABLES_HEADER)
    assert H.name == "tiny"
    assert H.is_connected()
    S = H.antipode()
    assert S(H.element("x")) == -H.element("x")


def test_parse_free_form():
    H = parse_presentation(FREE_ABC)
    S = H.antipode()
    assert S(H.element("c")) == H.element("ab") - H.element("c")


def test_free_form_surfaces_construction_errors():
    text = """hopf-spec 1
name broken
ring Z
maxdeg 3
free
generator a 1 = primitive
generator c 2 = 1 c 1 + 1 a a
"""
    with pytest.raises(SpecFileError):
        parse_presentation(text)


def test_duplicate_label_rejected_with_line():
    text = TABLES_HEADER.replace("basis 1 x", "basis 1 x x")
    with pytest.raises(SpecFileError) as exc:
        parse_presentation(text)
    assert "line 8" in str(exc.value)
    assert "duplicate" in str(exc.value)


def test_wrong_degree_coproduct_rejected():
    text = TABLES_HEADER.replace("coproduct x = 1 x 1 + 1 1 x",
                                 "coproduct x = 1 x x")
    with pytest.raises(SpecFileError) as exc:
        parse_presentation(text)
    assert "total degree" in str(exc.value)


def test_missing_header_rejected():
    with pytest.raises(SpecFileError):
        parse_presentation("name oops\nring Z\n")


def test_bad_coefficient_has_line_number():
    text = TABLES_HEADER.replace("product x 1 = 1 x", "product x 1 = huh x")
    with pytest.raises(SpecFileError) as exc:
        parse_presentation(text)
    assert "line 12" in str(exc.value)


@pytest.mark.parametrize("body", [TABLES_HEADER, FREE_ABC])
def test_negative_maxdeg_rejected_on_its_line(body):
    with pytest.raises(SpecFileError) as exc:
        parse_presentation(body.replace("maxdeg ", "maxdeg -", 1))
    assert str(exc.value) == "line 4: maxdeg must be >= 0"


@pytest.mark.parametrize("line, message", [
    ("basis 2 aa", "basis degree 2 outside 0..1"),
    ("basis -1 z", "basis degree -1 outside 0..1"),
    ("product x 1 = 5 x", "repeated product entry for x 1"),
    ("coproduct x = 1 x 1 + 1 1 x", "repeated coproduct entry for x"),
    ("counit 1 = 1", "repeated counit entry for 1"),
    ("antipode 1 = 1 1\nantipode x = -1 x\nantipode x = 1 x",
     "repeated antipode entry for x"),
])
def test_out_of_range_basis_row_and_repeated_entry_rejected_on_their_line(
        line, message):
    """A basis row of a degree the truncation does not have, or a second
    table entry for the same labels, fails at its line instead of being
    dropped or overriding the first."""
    text = TABLES_HEADER + line + "\n"
    with pytest.raises(SpecFileError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"line {len(text.splitlines())}: {message}"


def test_unknown_label_in_table_rejected():
    text = TABLES_HEADER.replace("product x 1 = 1 x", "product x 1 = 1 y")
    with pytest.raises(SpecFileError):
        parse_presentation(text)


def test_unknown_directive_rejected():
    with pytest.raises(SpecFileError):
        parse_presentation("hopf-spec 1\nfrobnicate yes\n")


def test_comments_and_blank_lines_ignored():
    text = TABLES_HEADER.replace("tables", "tables\n# a comment\n")
    H = parse_presentation(text)
    assert H.verify_bialgebra().ok()


# --- the two fills of the rows ------------------------------------------------

ROW_CASES = [(name, ring, maxdeg) for name in ("abc", "tensor", "shuffle", "fqsym")
             for ring in ("Z", "Z/5", "Z[q]/(1,1,1)") for maxdeg in (3, 4)]


@pytest.mark.parametrize("name, ring, maxdeg", ROW_CASES + [("taft", None, None)])
def test_zoo_rows_equal_the_rows_parsed_from_their_export(name, ring, maxdeg):
    """The zoo's rules and the spec parser fill the same rows: every product
    and coproduct row of a zoo presentation holds, term for term and raw
    value for raw value, the terms of the row parsed from its export."""
    H = (build_algebra("taft", None, None) if name == "taft" else
         build_algebra(name, ring_from_string(ring), maxdeg, rank=2))
    P = parse_presentation(export_presentation(H))
    n = len(H.basis.labels)
    assert P.basis == H.basis and n == len(P.basis.labels)
    for key in range(n * n):
        try:
            row = H._prows[key]
        except TruncationError:
            with pytest.raises(TruncationError):
                P._prows[key]
            continue
        assert sorted(row) == sorted(P._prows[key])
    for i in range(n):
        assert (sorted(zip(*H._crows[i][1:]))
                == sorted(zip(*P._crows[i][1:])))
