"""The contract every value class of the package keeps.

Each case builds one instance of a value class from keyword arguments that
name every field in declaration order, and names one field to change. A
copy with equal fields is equal (and hash-equal where the fields are
hashable), changing the field makes it unequal, an instance refuses
assignment and deletion, ``repr`` reads ``Name(field=value, ...)``, and
``pickle`` and ``copy.deepcopy`` give back an equal value.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from quadops.catalog import BuiltinCatalog, builtin, builtin_map, spanning_relations
from quadops.dsl import Diagnostic, ParseResult, Token
from quadops.expansion import TreeMonomial, WeightComponent
from quadops.linalg import Matrix, Subspace, _Record
from quadops.presentations import (
    GeneratorMap,
    GeneratorSet,
    Presentation,
    RelVector,
    SignedRelabeling,
)
from quadops.series import DimPrediction, DimSeries, PowerSeries
from quadops.verify import CheckRecord, CheckReport, VerifyConfig

F = Fraction
HASHABLE, UNHASHABLE = "hashable", "unhashable"


def _record(status="pass"):
    return CheckRecord("c", status, "1", "1", "")


# (class, fresh keyword arguments for every field, field to change, the
# changed value, kind); UNHASHABLE is frozen but holds a dict
CASES = (
    (Matrix, lambda: dict(rows=1, cols=2, entries=(F(1), F(2))), "entries", (F(1), F(3)), HASHABLE),
    (Subspace, lambda: dict(ambient_dim=3, rows=(((0, 1), (2, 2)),)), "ambient_dim", 4, HASHABLE),
    (GeneratorSet, lambda: dict(names=("a", "b")), "names", ("a", "c"), HASHABLE),
    (RelVector, lambda: dict(coordinates=(F(1), F(0))), "coordinates", (F(0), F(1)), HASHABLE),
    (
        Presentation,
        lambda: dict(generators=GeneratorSet(("a",)), relations=Subspace(2, (((0, 1), (1, -1)),))),
        "relations",
        Subspace.zero(2),
        HASHABLE,
    ),
    (
        GeneratorMap,
        lambda: dict(
            source=GeneratorSet(("a",)),
            target=GeneratorSet(("b", "c")),
            matrix=Matrix(1, 2, (F(1), F(1))),
        ),
        "matrix",
        Matrix(1, 2, (F(1), F(0))),
        HASHABLE,
    ),
    (SignedRelabeling, lambda: dict(permutation=(1, 0), signs=(1, -1)), "signs", (1, 1), HASHABLE),
    (TreeMonomial, lambda: dict(shape=(None, None), labels=(0,)), "labels", (1,), HASHABLE),
    (
        WeightComponent,
        lambda: dict(arity=2, basis=(TreeMonomial((None, None), (0,)),), pivots=()),
        "pivots",
        (0,),
        HASHABLE,
    ),
    (PowerSeries, lambda: dict(coefficients=(F(0), F(1), F(-2))), "coefficients", (F(0), F(1)), HASHABLE),
    (DimSeries, lambda: dict(dims=(1, 2, 6)), "dims", (1, 2, 7), HASHABLE),
    (DimPrediction, lambda: dict(dims=(1, 2), failure=None), "failure", "stuck", HASHABLE),
    (
        CheckRecord,
        lambda: dict(check_id="c", status="pass", expected="1", actual="1", witness=""),
        "status",
        "fail",
        HASHABLE,
    ),
    (CheckReport, lambda: dict(records=(_record(),)), "records", (_record("fail"),), HASHABLE),
    (VerifyConfig, lambda: dict(max_weight=4, scan_radius=2), "scan_radius", 0, HASHABLE),
    (Token, lambda: dict(kind="ident", text="a", line=1, column=2), "column", 3, HASHABLE),
    (
        Diagnostic,
        lambda: dict(line=1, column=2, message="m", severity="error"),
        "severity",
        "warning",
        HASHABLE,
    ),
    (
        ParseResult,
        lambda: dict(presentations={"P": builtin("As")}, diagnostics=()),
        "diagnostics",
        (Diagnostic(1, 1, "m"),),
        UNHASHABLE,
    ),
    (
        BuiltinCatalog,
        lambda: dict(
            presentations={"As": builtin("As")},
            spanning={"As": spanning_relations("As")},
            maps={},
        ),
        "maps",
        {("Dias", "As"): builtin_map("Dias", "As")},
        UNHASHABLE,
    ),
)


def test_every_value_class_is_covered():
    classes = [case[0] for case in CASES]
    assert len(set(classes)) == len(classes)
    assert set(classes) == set(_Record.__subclasses__())


@pytest.mark.parametrize(
    "cls,fields,name,other,kind", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_class_contract(cls, fields, name, other, kind):
    value = cls(**fields())
    twin = cls(**fields())
    changed = cls(**{**fields(), name: other})

    assert value == twin and not value != twin
    assert value != changed and not value == changed
    assert value.__eq__(object()) is NotImplemented
    # equal fields in another class, even a subclass, are not enough
    assert value != type("Sub", (cls,), {})(**fields())
    if kind == HASHABLE:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)

    with pytest.raises(AttributeError):
        setattr(value, name, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == twin

    expected = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields())
    assert repr(value) == f"{cls.__name__}({expected})"

    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


# A sequence field given as a list is stored as a tuple: the value equals
# the one built from a tuple and can be hashed.
@pytest.mark.parametrize(
    "from_list,from_tuple",
    [
        (lambda: Matrix(1, 1, [1]), lambda: Matrix(1, 1, (1,))),
        (lambda: RelVector([1, 0] * 4), lambda: RelVector((1, 0) * 4)),
        (lambda: GeneratorSet(["a"]), lambda: GeneratorSet(("a",))),
    ],
    ids=["Matrix", "RelVector", "GeneratorSet"],
)
def test_list_fields_are_stored_as_tuples(from_list, from_tuple):
    value = from_list()
    assert value == from_tuple()
    assert hash(value) == hash(from_tuple())
