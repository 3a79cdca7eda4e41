"""The value classes keep the protocol they had as frozen dataclasses:
repr, equality and hash over the same fields, pickling, frozenness and
truth value.  The expected reprs are the strings the dataclasses printed."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from transcube.cube import INF, CubeMap, Vertex, coface, max_min_collapse, validate_cotransverse
from transcube.geometry import ChainBound, PointPresentation, SkeletonDigraph
from transcube.homsets import check_factorization_final, factorize
from transcube.paths import DPath, DPathReport, is_dpath, naturality_certificate, segment_path
from transcube.reedy import LatchingComparison, compare_latching_to_boundary, constant_obj
from transcube.sts import FreeCell, StsMap, boundary, certify_cellular, cube_precubical, pushout, representable
from transcube.suites import CheckSuiteReport

SEG = segment_path(1, [(0, (0,)), (1, (1,))])
SEG_REPR = "SegmentPath(dim=1, breakpoints=((Fraction(0, 1), (Fraction(0, 1),)), (Fraction(1, 1), (Fraction(1, 1),))))"
B1 = boundary(1)
R0 = representable(0)
J = StsMap(R0, B1, {0: 0})
P = pushout(J, J)


def _sts_map_repr(f: StsMap) -> str:
    return f"StsMap(src={f.src!r}, dst={f.dst!r}, mapping={f.mapping!r})"


# name -> (instance, its repr, the fields its equality and hash read)
RECORDS = {
    "Vertex": (Vertex(2, 1), "Vertex(dim=2, bits=1)", (2, 1)),
    "CubeMap": (max_min_collapse(), "CubeMap(dom_dim=2, cod_dim=2, table=(0, 1, 1, 3))", (2, 2, (0, 1, 1, 3))),
    "Violation": (
        validate_cotransverse((0, 0), 1, 1),
        "Violation(axiom='strictly-increasing', pair=(Vertex(dim=1, bits=0), Vertex(dim=1, bits=1)), "
        "message='x < y but not f(x) < f(y)')",
        ("strictly-increasing", (Vertex(1, 0), Vertex(1, 1)), "x < y but not f(x) < f(y)"),
    ),
    "Factorization": (
        factorize(coface(1, 0, 1)),
        "Factorization(psi=CubeMap(dom_dim=0, cod_dim=0, table=(0,)), "
        "phi=CubeMap(dom_dim=0, cod_dim=1, table=(0,)), free=(), steps=((1, 1, 0),))",
        (CubeMap(0, 0, (0,)), CubeMap(0, 1, (0,)), (), ((1, 1, 0),)),
    ),
    "FinalityReport": (
        check_factorization_final(coface(1, 0, 1)),
        "FinalityReport(ok=True, factorizations=1, counterexample=None, detail='')",
        (True, 1, None, ""),
    ),
    "DPathReport": (is_dpath(SEG), "DPathReport(ok=True, reason='', segment=None)", (True, "", None)),
    "NaturalityCertificate": (
        naturality_certificate(DPath(((0, SEG),))),
        "NaturalityCertificate(natural=True, total_length=Fraction(1, 1), legs=((0, Fraction(1, 1), True),))",
        (True, Fraction(1), ((0, Fraction(1), True),)),
    ),
    "SkeletonDigraph": (
        SkeletonDigraph.of(representable(1)),
        "SkeletonDigraph(nodes=(0, 1), arcs=((0, 1),))",
        ((0, 1), ((0, 1),)),
    ),
    "ChainBound": (ChainBound(Fraction(1, 2)), "ChainBound(value=Fraction(1, 2), exhausted=False)", (Fraction(1, 2), False)),
    "LatchingComparison": (
        compare_latching_to_boundary(constant_obj(("*",), 1), 1),
        "LatchingComparison(bijective=True, latching_size=2, boundary_eval_size=2, detail='')",
        (True, 2, 2, ""),
    ),
    "FreeCell": (
        FreeCell(max_min_collapse(), 3),
        "FreeCell(psi=CubeMap(dom_dim=2, cod_dim=2, table=(0, 1, 1, 3)), base=3)",
        (max_min_collapse(), 3),
    ),
    "PushoutResult": (
        P,
        f"PushoutResult(sts={P.sts!r}, from_left={_sts_map_repr(P.from_left)}, from_right={_sts_map_repr(P.from_right)})",
        (P.sts, P.from_left, P.from_right),
    ),
    "CellCertificate": (
        certify_cellular([{"dim": 0}], 0)[1],
        "CellCertificate(cell_counts={0: 1}, cube_counts={0: 1})",
        None,  # dict fields: unhashable
    ),
    "SegmentPath": (SEG, SEG_REPR, (1, SEG.breakpoints)),
    "DPath": (DPath(((0, SEG),)), f"DPath(legs=((0, {SEG_REPR}),))", (((0, SEG),),)),
    "PointPresentation": (
        PointPresentation(0, (Fraction(1, 2),)),
        "PointPresentation(cube_id=0, local=(Fraction(1, 2),))",
        (0, (Fraction(1, 2),)),
    ),
    "StsMap": (J, _sts_map_repr(J), (R0, B1)),  # mapping is not compared
    "Precubical": (
        cube_precubical(1),
        "Precubical(max_dim=1, cubes={0: (0, 1), 1: (2,)}, faces={(2, 1, 0): 0, (2, 1, 1): 1})",
        None,
    ),
    "CheckSuiteReport": (
        CheckSuiteReport("x", 2, ["f"], 0.5, True),
        "CheckSuiteReport(suite='x', cases=2, failures=['f'], seconds=0.5, exhausted=True)",
        None,
    ),
}
# These hold an Sts, which compares by identity: a round trip gives an equal
# structure but an unequal object, as it did when they were dataclasses.
HOLDS_AN_STS = {"PushoutResult", "StsMap"}
MUTABLE = {"CheckSuiteReport"}


def test_every_value_class_is_covered():
    assert len(RECORDS) == 19
    assert all(type(obj).__name__ == name for name, (obj, _, _) in RECORDS.items())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_unchanged(name):
    obj, text, _ = RECORDS[name]
    assert repr(obj) == text


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_the_hash_of_the_compared_fields(name):
    obj, _, fields = RECORDS[name]
    if fields is None:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(fields)


def test_sts_map_equality_ignores_the_mapping():
    two = boundary(1)
    a, b = StsMap(R0, two, {0: 0}), StsMap(R0, two, {0: 1})
    assert a.mapping != b.mapping and a == b and hash(a) == hash(b)
    assert StsMap(R0, boundary(1), {0: 0}) != a  # another target object


def _without_addresses(text: str) -> str:
    return re.sub(r" object at 0x[0-9a-f]+", "", text)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_round_trips(name):
    obj = RECORDS[name][0]
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(back) is type(obj)
        assert _without_addresses(repr(back)) == _without_addresses(repr(obj))
        assert (back != obj) if name in HOLDS_AN_STS else (back == obj)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_fields_are_read_only(name):
    obj = RECORDS[name][0]
    field = repr(obj).split("(", 1)[1].split("=", 1)[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)


def test_check_suite_report_stays_mutable_and_unhashable():
    report = CheckSuiteReport("x")
    report.cases += 1
    report.failures.append("f")
    assert report == CheckSuiteReport("x", 1, ["f"]) and CheckSuiteReport("y").failures == []
    with pytest.raises(TypeError):
        {report}


def test_truth_values_are_unchanged():
    assert not RECORDS["Violation"][0]
    assert RECORDS["FinalityReport"][0] and RECORDS["LatchingComparison"][0]
    assert RECORDS["DPathReport"][0] and RECORDS["NaturalityCertificate"][0] and RECORDS["ChainBound"][0]
    assert not DPathReport(False, "bad") and not LatchingComparison(False, 1, 2)
    assert not ChainBound(INF) and ChainBound(Fraction(0))
    assert not naturality_certificate(DPath(((0, segment_path(1, [(0, (0,)), (2, (1,))])),)))
    assert RECORDS["FreeCell"][0] and RECORDS["Vertex"][0] and RECORDS["Precubical"][0]


def test_only_the_named_tuple_records_compare_equal_to_plain_tuples():
    assert FreeCell(max_min_collapse(), 3) == (max_min_collapse(), 3)
    assert RECORDS["Factorization"][0] == RECORDS["Factorization"][2]
    assert Vertex(2, 1) != (2, 1) and SEG != (1, SEG.breakpoints)
