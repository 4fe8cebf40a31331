"""Value semantics of every public value type.

Each case is built by keyword from its documented field names, except
`WindowTable`, which `stability_windows` builds; its repr is pinned as a
literal.  Records are tuples with named fields, built on the package's
``_record.Record``, and keep what ``collections.namedtuple`` gives: its
repr, ``_make``, ``_replace``, ``_fields``, copying and pickling.  The
five validating classes (`NodalCurve`, `Polarization`, `SheafDescriptor`,
`ComponentTuple`, `WindowTable`) are plain immutable classes.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import nodalbn as nb
from nodalbn import brill_noether as bn, components as comp, polarization as pol

F = Fraction
NODES = "(Node(id=1, first=1, second=2), Node(id=2, first=2, second=3))"
CURVE = f"NodalCurve(genera=(2, 3, 2), nodes={NODES})"
LOCAL = "LocalType(free_rank=2, a_first=0, a_second=0)"
WINDOW_1 = ("Window(j=1, subcurve=frozenset({1}), node=1, lower=Fraction(-3, 4), "
            "upper=Fraction(13, 4))")
WINDOW_2 = ("Window(j=2, subcurve=frozenset({1, 2}), node=2, lower=Fraction(7, 4), "
            "upper=Fraction(23, 4))")
SPLIT = "SplitDefect(node=1, side=frozenset({1}), defect=Fraction(1, 2), ok=True)"
ROW = ("StabilityRow(j=1, subcurve=frozenset({1}), node=1, lower=Fraction(-3, 4), "
       "partial_sum=1, upper=Fraction(13, 4), ok=True, slack_lower=Fraction(7, 4), "
       "slack_upper=Fraction(9, 4))")
ITEM = "ChecklistItem(name='compact_type', ok=True, detail='tree with 3 components')"


def curve():
    return nb.NodalCurve(
        genera=(2, 3, 2), nodes=(nb.Node(id=1, first=1, second=2), nb.Node(id=2, first=2, second=3))
    )


def window(j):
    if j == 1:
        return comp.Window(j=1, subcurve=frozenset({1}), node=1, lower=F(-3, 4), upper=F(13, 4))
    return comp.Window(j=2, subcurve=frozenset({1, 2}), node=2, lower=F(7, 4), upper=F(23, 4))


def table():
    # `stability_windows` is the one way to build a WindowTable
    c = curve()
    return comp.stability_windows(c, nb.canonical(c), nb.order_components(c, 3), 4, 5)


def split():
    return pol.SplitDefect(node=1, side=frozenset({1}), defect=F(1, 2), ok=True)


def row():
    return comp.StabilityRow(
        j=1, subcurve=frozenset({1}), node=1, lower=F(-3, 4), partial_sum=1, upper=F(13, 4),
        ok=True, slack_lower=F(7, 4), slack_upper=F(9, 4),
    )


def item():
    return bn.ChecklistItem(name="compact_type", ok=True, detail="tree with 3 components")


# name -> (keyword construction, the repr it had as a frozen dataclass)
CASES = {
    "Node": (lambda: nb.Node(id=1, first=1, second=2), "Node(id=1, first=1, second=2)"),
    "NodalCurve": (curve, CURVE),
    "Polarization": (
        lambda: nb.Polarization(weights=(F(1, 4), F(1, 2), F(1, 4))),
        "Polarization(weights=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))",
    ),
    "SplitDefect": (split, SPLIT),
    "GoodnessReport": (
        lambda: nb.GoodnessReport(passed=True, splits=(split(),)),
        f"GoodnessReport(passed=True, splits=({SPLIT},))",
    ),
    "LocalType": (lambda: nb.LocalType(free_rank=2, a_first=0, a_second=0), LOCAL),
    "SheafDescriptor": (
        lambda: nb.SheafDescriptor(
            curve=curve(), multirank=(2, 2, 2), chi=-10,
            stalks=((1, nb.LocalType(2, 0, 0)), (2, nb.LocalType(2, 0, 0))), degrees=(1, 0, 1),
        ),
        f"SheafDescriptor(curve={CURVE}, multirank=(2, 2, 2), chi=-10, "
        f"stalks=((1, {LOCAL}), (2, {LOCAL})), degrees=(1, 0, 1))",
    ),
    "OrderedDecomposition": (
        lambda: nb.OrderedDecomposition(
            root=3, order=(1, 2, 3), subcurves=(frozenset({1}), frozenset({1, 2})),
            separating_nodes=(1, 2),
        ),
        "OrderedDecomposition(root=3, order=(1, 2, 3), "
        "subcurves=(frozenset({1}), frozenset({1, 2})), separating_nodes=(1, 2))",
    ),
    "DecompositionCheck": (
        lambda: nb.DecompositionCheck(ok=False, violations=("tail after position 1 is not connected",)),
        "DecompositionCheck(ok=False, violations=('tail after position 1 is not connected',))",
    ),
    "ComponentTuple": (
        lambda: nb.ComponentTuple(rank=4, degrees=(1, 2, 2)),
        "ComponentTuple(rank=4, degrees=(1, 2, 2))",
    ),
    "Window": (lambda: window(1), WINDOW_1),
    "WindowTable": (
        table,
        f"WindowTable(rank=4, degree=5, coeff=-19, windows=({WINDOW_1}, {WINDOW_2}), "
        "order=(1, 2, 3))",
    ),
    "StabilityRow": (row, ROW),
    "StabilityReport": (
        lambda: nb.StabilityReport(passed=True, rows=(row(),)),
        f"StabilityReport(passed=True, rows=({ROW},))",
    ),
    "RootMismatch": (
        lambda: comp.RootMismatch(
            root=2, missing=(nb.ComponentTuple(4, (1, 2, 2)),), extra=()
        ),
        "RootMismatch(root=2, missing=(ComponentTuple(rank=4, degrees=(1, 2, 2)),), extra=())",
    ),
    "InvarianceReport": (
        lambda: nb.InvarianceReport(passed=True, count=16, mismatches=()),
        "InvarianceReport(passed=True, count=16, mismatches=())",
    ),
    "BuilderResult": (
        lambda: nb.BuilderResult(case="a", tuple=nb.ComponentTuple(4, (1, 1, 1))),
        "BuilderResult(case='a', tuple=ComponentTuple(rank=4, degrees=(1, 1, 1)))",
    ),
    "Witness": (
        lambda: nb.Witness(epsilon=(F(-1, 8), F(-1, 8), F(1, 4)), j=2, side="lower"),
        "Witness(epsilon=(Fraction(-1, 8), Fraction(-1, 8), Fraction(1, 4)), j=2, side='lower')",
    ),
    "Verdict": (
        lambda: bn.Verdict(ok=False, failures=("degree 0 must be positive",)),
        "Verdict(ok=False, failures=('degree 0 must be positive',))",
    ),
    "ComponentBound": (
        lambda: bn.ComponentBound(component=1, bound=F(2), ok=True),
        "ComponentBound(component=1, bound=Fraction(2, 1), ok=True)",
    ),
    "ChecklistItem": (item, ITEM),
    "BNCertificate": (
        lambda: nb.BNCertificate(
            gamma=3, genera=(2, 3, 2), arithmetic_genus=7, weights=(F(1, 4), F(1, 2), F(1, 4)),
            s=2, k=1, d=3, r=3, degree_tuple=nb.ComponentTuple(2, (1, 1, 1)),
            checklist=(item(),), beta=39, moduli_dim=25, h1_dual=15, fiber_dim=14,
            identity_ok=True,
        ),
        "BNCertificate(gamma=3, genera=(2, 3, 2), arithmetic_genus=7, "
        "weights=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), s=2, k=1, d=3, r=3, "
        "degree_tuple=ComponentTuple(rank=2, degrees=(1, 1, 1)), "
        f"checklist=({ITEM},), beta=39, moduli_dim=25, h1_dual=15, fiber_dim=14, "
        "identity_ok=True)",
    ),
    "CertificationFailure": (
        lambda: nb.CertificationFailure(checklist=(item(),)),
        f"CertificationFailure(checklist=({ITEM},))",
    ),
    "ScanRow": (
        lambda: nb.ScanRow(
            shape="chain_and_comb", gamma=3, genera=(2, 3, 2), s=4, d=3, k=1, certified=True,
            beta=123,
        ),
        "ScanRow(shape='chain_and_comb', gamma=3, genera=(2, 3, 2), s=4, d=3, k=1, "
        "certified=True, beta=123)",
    ),
}
VALIDATING = ["NodalCurve", "Polarization", "SheafDescriptor", "ComponentTuple", "WindowTable"]
RECORDS = [name for name in CASES if name not in VALIDATING]


@pytest.mark.parametrize("name", CASES)
def test_keyword_construction_keeps_its_repr(name):
    build, text = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_with_equal_hashes(name):
    build, _ = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", CASES)
def test_attributes_cannot_be_set_or_deleted(name):
    value = CASES[name][0]()
    field = type(value).__match_args__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALIDATING)
def test_validating_classes_compare_only_with_their_own_class(name):
    value = CASES[name][0]()
    fields = tuple(getattr(value, f) for f in type(value).__match_args__)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    assert value != object()


def test_equality_reads_exactly_the_fields():
    # the integer bounds and the children are not compared
    t = table()
    t.children
    assert t == table()
    assert nb.Polarization((F(1, 2), F(1, 2))) == nb.Polarization((F(2, 4), F(1, 2)))
    assert nb.NodalCurve((2, 2), ((1, 2, 1),)) == nb.NodalCurve((2, 2), ((1, 1, 2),))


def test_records_copy_with_replace_and_equal_their_field_tuples():
    w = window(1)
    moved = w._replace(lower=w.lower + 1, upper=w.upper + 1)
    assert moved == (1, frozenset({1}), 1, F(1, 4), F(17, 4))
    assert w == tuple(w)
    assert moved._replace(lower=w.lower, upper=w.upper) == w


def test_library_values_equal_their_keyword_builds():
    c = nb.chain_curve((2, 3, 2))
    assert c == curve()
    eta = nb.canonical(c)
    assert eta == CASES["Polarization"][0]()
    assert len(eta) == 3 and eta[2] == F(1, 2)
    deco = nb.order_components(c, 3)
    assert deco == CASES["OrderedDecomposition"][0]()
    assert comp.stability_windows(c, eta, deco, 4, 5) == table()
    assert nb.goodness_proxy(c, eta).splits[0] == split()
    report = comp.stability_windows(c, eta, deco, 4, 5).check(nb.ComponentTuple(4, (1, 2, 2)))
    assert report.rows[0] == row()
    # plain triples in a mapping and a degree list read as the keyword build's values
    sheaf = nb.SheafDescriptor(c, [2, 2, 2], -10, {2: (2, 0, 0), 1: (2, 0, 0)}, [1, 0, 1])
    assert sheaf == CASES["SheafDescriptor"][0]()
    assert nb.build_small_slope_tuple(c, 4, 3) == CASES["BuilderResult"][0]()
    assert nb.catalog_invariance_check(c, eta, 4, 5) == nb.InvarianceReport(True, 16, ())
    assert len(nb.enumerate_components(c, eta, nb.order_components(c, 1), 4, 5)) == 16


@given(st.integers(0, 10_000))
def test_component_tuples_sort_by_rank_then_degrees(seed):
    rng = random.Random(seed)
    pairs = [
        (rng.randint(1, 3), tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(0, 12))
    ]
    tuples = [nb.ComponentTuple(rank=r, degrees=d) for r, d in pairs]
    assert [(t.rank, t.degrees) for t in sorted(tuples)] == sorted(pairs)
    for a, b in itertools.product(tuples[:4], repeat=2):
        ka, kb = (a.rank, a.degrees), (b.rank, b.degrees)
        assert (a < b, a <= b, a > b, a >= b, a == b) == (ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb)


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle_as_their_own_class(name):
    value = CASES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", RECORDS)
def test_records_make_from_their_field_tuple(name):
    value = CASES[name][0]()
    cls = type(value)
    made = cls._make(tuple(value))
    assert type(made) is cls
    assert made == value
    assert cls._fields == cls.__match_args__
    assert len(cls._fields) == len(value)
    with pytest.raises(TypeError):
        cls._make(tuple(value)[1:])


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_a_missing_repeated_or_unknown_field(name):
    value = CASES[name][0]()
    cls = type(value)
    fields = dict(zip(cls._fields, value))
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(**{f: v for f, v in fields.items() if f != first})
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*value, value[0])
    with pytest.raises(TypeError):
        cls(value[0], **fields)
    with pytest.raises((TypeError, ValueError)):  # namedtuple's is ValueError before 3.13
        value._replace(not_a_field=1)
    assert cls(*value) == cls(**fields) == value


def test_record_fields_match_positionally():
    match window(2):
        case comp.Window(j, subcurve, node, upper=upper):
            assert (j, subcurve, node, upper) == (2, frozenset({1, 2}), 2, F(23, 4))
        case _:
            pytest.fail("Window did not match its fields")


def test_verdict_failures_default_to_empty():
    assert bn.Verdict(ok=True).failures == ()
    assert bn.Verdict(True) == (True, ())
    assert bn.Verdict(False, ("a",)).failures == ("a",)
