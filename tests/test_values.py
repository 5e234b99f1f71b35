"""The record classes behave as the frozen dataclasses they replaced.

Each sample is compared with a frozen dataclass of the same name and fields
holding the same values: repr text, hash, and inequality across classes.
"""

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from eigentransfer._frozen import FrozenValue, _set
from eigentransfer.errors import InvalidSigma
from eigentransfer.laurent import LaurentPoly
from eigentransfer.monomial import ONE, SymbolValue, symbol
from eigentransfer.points import (
    AtkinLehnerFactor,
    ClassicalPoint,
    DiagramReport,
    MockFormSpace,
    SphericalFactor,
    constant_C,
    divisibility_check,
)
from eigentransfer.refinements import LocalRepDescriptor, Segment
from eigentransfer.tori import AlgebraicWeight, CocharVector, GroupShape, UnramifiedCharacter
from eigentransfer.transfer import (
    ArchimedeanTransfer,
    CheckResult,
    TransferConfig,
    TransferReport,
    archimedean_sigma,
    archimedean_transfer,
    invert_permutation,
)

HALF = Fraction(1, 2)
SHAPE = GroupShape((1, 2))
WEIGHT = AlgebraicWeight(SHAPE, (3, 1, 0))
CHI = UnramifiedCharacter(SHAPE, (symbol("a"), 2 * symbol("b"), symbol("c", HALF)))
SEGMENT = Segment(symbol("g"), 2)
POINT = ClassicalPoint.build(
    WEIGHT, {"p": CHI}, {"v": ((symbol("s"),), (symbol("u"), symbol("t")))}
)
CHECK = CheckResult("modulus-duality", False, ("e_1: 1 * q",))

# (instance, field names) for every record class; two samples leave out a default.
SAMPLES = [
    (SymbolValue(Fraction(4), Fraction(2)), ("value", "sqrt")),
    (SymbolValue(3), ("value", "sqrt")),
    (SHAPE, ("blocks",)),
    (CocharVector(SHAPE, (1, 0, -1)), ("shape", "exps")),
    (CHI, ("shape", "values")),
    (WEIGHT, ("shape", "exps")),
    (TransferConfig(SHAPE, (2, 0, 1), HALF), ("source", "sigma", "alpha", "mu")),
    (CHECK, ("name", "passed", "residuals")),
    (CheckResult("shift-integrality", True), ("name", "passed", "residuals")),
    (TransferReport((CHECK,)), ("checks",)),
    (
        ArchimedeanTransfer(AlgebraicWeight(GroupShape((3,)), (2, 2, 1)), (0, 1, 2)),
        ("weight", "sigma"),
    ),
    (SEGMENT, ("gamma", "d")),
    (
        LocalRepDescriptor(SHAPE, ((Segment(symbol("a"), 1),), (SEGMENT,))),
        ("shape", "segments"),
    ),
    (POINT, ("weight", "up", "satake")),
    (MockFormSpace(WEIGHT, ((POINT, 2),)), ("weight", "entries")),
    (AtkinLehnerFactor("p", (1, 0, 0)), ("place", "cochar")),
    (SphericalFactor("v", 2), ("place", "degree")),
    (DiagramReport((True, False)), ("results",)),
]
IDS = [f"{type(obj).__name__}-{i}" for i, (obj, _) in enumerate(SAMPLES)]


def dataclass_twin(obj, fields):
    twin = make_dataclass(type(obj).__qualname__, fields, frozen=True)
    return twin(*(getattr(obj, name) for name in fields))


def test_every_record_class_is_sampled():
    classes = {type(obj) for obj, _ in SAMPLES}
    assert len(classes) == 16


def test_repr_text():
    assert repr(SHAPE) == "GroupShape(blocks=(1, 2))"
    assert repr(SymbolValue(3)) == "SymbolValue(value=Fraction(3, 1), sqrt=None)"
    assert repr(SEGMENT) == "Segment(gamma=Monomial[1 * g], d=2)"
    assert repr(CHECK) == (
        "CheckResult(name='modulus-duality', passed=False, residuals=('e_1: 1 * q',))"
    )
    assert repr(TransferConfig(SHAPE, (0, 1, 2), 1, "N")) == (
        "TransferConfig(source=GroupShape(blocks=(1, 2)), sigma=(0, 1, 2), "
        "alpha=Fraction(1, 1), mu='N')"
    )


@pytest.mark.parametrize("obj, fields", SAMPLES, ids=IDS)
def test_matches_dataclass_twin(obj, fields):
    twin = dataclass_twin(obj, fields)
    values = tuple(getattr(obj, name) for name in fields)
    assert repr(obj) == repr(twin)
    assert hash(obj) == hash(twin) == hash(values)
    assert obj != twin and not obj == twin
    assert obj.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("obj, fields", SAMPLES, ids=IDS)
def test_equality_by_class_and_fields(obj, fields):
    values = tuple(getattr(obj, name) for name in fields)
    rebuilt = type(obj)(*values)
    # shapes are interned: equal blocks give the one object; other records are built anew
    assert (rebuilt is obj) if type(obj) is GroupShape else (rebuilt is not obj)
    assert rebuilt == obj and not rebuilt != obj
    assert hash(rebuilt) == hash(obj)
    assert type(obj)(**dict(zip(fields, values))) == obj
    assert obj == obj and not obj != obj
    assert obj != values and obj != object()


def test_equality_across_classes():
    cochar, weight = CocharVector(SHAPE, (1, 0, 0)), AlgebraicWeight(SHAPE, (1, 0, 0))
    assert cochar.shape == weight.shape and cochar.exps == weight.exps
    assert cochar != weight and not cochar == weight
    assert AtkinLehnerFactor("p", (2,)) != SphericalFactor("p", 2)
    assert TransferReport((CHECK,)) != DiagramReport((CHECK,))
    assert {cochar: 1, weight: 2} == {weight: 2, cochar: 1}
    assert CheckResult("x", True) != CheckResult("x", True, ("r",))
    assert GroupShape((1, 2)) != GroupShape((2, 1))


@pytest.mark.parametrize("obj, fields", SAMPLES, ids=IDS)
def test_assignment_and_deletion_raise(obj, fields):
    before = repr(obj)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("obj, fields", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trips(obj, fields):
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [
        pickle.loads(pickle.dumps(obj, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is type(obj)
        assert other == obj and hash(other) == hash(obj) and repr(other) == repr(obj)


def test_keys_are_compiled_per_class_on_first_use():
    """A class's key is compiled on its first use and returns its fields in ``_fields``
    order, a 1-tuple for one field; a subclass with other fields compiles its own."""

    class Single(FrozenValue):
        __slots__ = _fields = ("x",)

        def __init__(self, x):
            _set(self, "x", x)

    class Triple(Single):
        __slots__ = ("y", "z")
        _fields = ("z", "x", "y")

        def __init__(self, x, y, z):
            super().__init__(x)
            _set(self, "y", y)
            _set(self, "z", z)

    assert Single._key is Triple._key is FrozenValue._key
    assert Single(5)._key() == (5,) and hash(Single(5)) == hash((5,))
    assert Single._key is not FrozenValue._key and Triple._key is FrozenValue._key
    assert Triple(1, 2, 3)._key() == (3, 1, 2)
    assert repr(Triple(1, 2, 3)).endswith(".Triple(z=3, x=1, y=2)")
    assert Single(5) != Triple(5, 0, 0)


def test_cached_properties_still_cache():
    shape = GroupShape((2, 3))
    assert shape.offsets == (0, 2) and shape.offsets is shape.offsets
    assert "offsets" in vars(shape)
    cfg = TransferConfig(shape, (0, 2, 1, 3, 4), HALF)
    assert cfg.target == GroupShape((5,)) and cfg.target is cfg.target
    assert cfg.sigma_inverse == (0, 2, 1, 3, 4) and "sigma_inverse" in vars(cfg)
    desc = LocalRepDescriptor(GroupShape((2,)), ((SEGMENT,),))
    assert desc.is_generic is True and "is_generic" in vars(desc)
    assert desc._ladders is desc._ladders
    # caches are not fields: they change neither equality, hash nor copies
    fresh = GroupShape((2, 3))
    assert fresh == shape and hash(fresh) == hash(shape)
    assert pickle.loads(pickle.dumps(cfg)) == cfg


TRIVIAL_3 = UnramifiedCharacter.trivial(GroupShape((3,)))
INF, NAN = float("inf"), float("nan")
EMPTY_SPACE = MockFormSpace(WEIGHT, ())
INEXACT = "rationals are ints, Fractions or 'a/b' text, got "
ERRORS = [
    (SymbolValue, (0,), "symbol values must be positive rationals"),
    (SymbolValue, (4, 3), "declared square root does not square to the value"),
    (GroupShape, ((),), "a group shape needs at least one block, all of positive size"),
    (GroupShape, ((1, 0),), "a group shape needs at least one block, all of positive size"),
    (CocharVector, (SHAPE, (1,)), "cocharacter needs 3 entries, got 1"),
    (UnramifiedCharacter, (SHAPE, (ONE,)), "character needs 3 values, got 1"),
    (UnramifiedCharacter, (SHAPE, (ONE, ONE, 1)), "character values must be Monomial instances"),
    (AlgebraicWeight, (SHAPE, (1, 2, 3, 4)), "weight needs 3 entries, got 4"),
    (
        TransferConfig,
        (SHAPE, (0, 0, 1), HALF),
        "sigma must be a permutation of 0..2, got (0, 0, 1)",
    ),
    (
        TransferConfig,
        (SHAPE, (0, 2, 1), HALF),
        "sigma must be strictly increasing on block 2; images [2, 1]",
    ),
    (TransferConfig, (SHAPE, (0, 1, 2), Fraction(1, 3)), "alpha must be a half-integer, got 1/3"),
    (TransferConfig, ((1, 2), (0, 1, 2), HALF, "q"), "mu must be a fresh symbol name, got 'q'"),
    (Segment, (1, 1), "segment twist must be a Monomial"),
    (Segment, (symbol("g"), 0), "segment length must be a positive integer, got 0"),
    (Segment, (symbol("g"), 1.5), "segment length must be a positive integer, got 1.5"),
    (LocalRepDescriptor, (SHAPE, ((SEGMENT,),)), "descriptor needs 2 segment blocks, got 1"),
    (
        LocalRepDescriptor,
        (SHAPE, ((1,), (SEGMENT,))),
        "segment blocks must contain Segment instances",
    ),
    (
        LocalRepDescriptor,
        (SHAPE, ((SEGMENT,), (SEGMENT,))),
        "segment lengths in block 1 sum to 2, expected 1",
    ),
    (
        ClassicalPoint,
        (WEIGHT, (("p", TRIVIAL_3),), ()),
        "eigenvalue system at place 'p' must be a character on (1,2)",
    ),
    (
        ClassicalPoint,
        (WEIGHT, (), (("v", ((ONE,), (ONE,))),)),
        "Satake data at place 'v' must have block sizes (1, 2)",
    ),
    (
        ClassicalPoint,
        (WEIGHT, (), (("v", ((ONE,), (ONE, 1))),)),
        "Satake values at place 'v' must be Monomials",
    ),
    (
        ClassicalPoint,
        (WEIGHT, (("p", CHI), ("p", CHI)), ()),
        "duplicate place tags in eigenvalue systems",
    ),
    (
        ClassicalPoint,
        (WEIGHT, (), (("v", ((ONE,), (ONE, ONE))),) * 2),
        "duplicate place tags in Satake data",
    ),
    (MockFormSpace, (WEIGHT, ((POINT, 0),)), "multiplicity must be positive, got 0"),
    (
        MockFormSpace,
        (AlgebraicWeight(SHAPE, (0, 0, 0)), ((POINT, 1),)),
        "all entries of a form space must share its weight",
    ),
    (SphericalFactor, ("v", 0), "degree must be a positive integer, got 0"),
    (SphericalFactor, ("v", "2"), "degree must be a positive integer, got '2'"),
    (Segment, (symbol("g"), "2"), "segment length must be a positive integer, got '2'"),
    (
        Segment,
        (symbol("g"), Fraction(3, 2)),
        "segment length must be a positive integer, got Fraction(3, 2)",
    ),
    # values that int() itself refuses (TypeError, OverflowError or its own
    # ValueError text) get the message of the site that checks them
    (GroupShape, ((INF,),), "group shape blocks must be integers, got inf"),
    (GroupShape, ((None,),), "group shape blocks must be integers, got None"),
    (GroupShape, ((NAN,),), "group shape blocks must be integers, got nan"),
    (GroupShape, ((1, "abc"),), "group shape blocks must be integers, got 'abc'"),
    (Segment, (symbol("g"), INF), "segment length must be a positive integer, got inf"),
    (Segment, (symbol("g"), None), "segment length must be a positive integer, got None"),
    (Segment, (symbol("g"), NAN), "segment length must be a positive integer, got nan"),
    (Segment, (symbol("g"), "abc"), "segment length must be a positive integer, got 'abc'"),
    (AtkinLehnerFactor, ("p", (INF,)), "cocharacter entries must be integers, got inf"),
    (LaurentPoly, ((INF,),), "group shape blocks must be integers, got inf"),
    (SphericalFactor, ("v", None), "degree must be a positive integer, got None"),
    (SphericalFactor, ("v", INF), "degree must be a positive integer, got inf"),
    (constant_C, (None, [1]), "dimensions must be positive integers"),
    (constant_C, (INF, [1]), "dimensions must be positive integers"),
    (constant_C, (3, [None]), "packet dimensions must be integers, got None"),
    (MockFormSpace, (WEIGHT, ((POINT, None),)), "multiplicities must be integers, got None"),
    (
        divisibility_check,
        (EMPTY_SPACE, EMPTY_SPACE, INF, (), {}),
        "the constant must be a positive integer, got inf",
    ),
    (
        divisibility_check,
        (EMPTY_SPACE, EMPTY_SPACE, NAN, (), {}),
        "the constant must be a positive integer, got nan",
    ),
    # alpha follows the exactness rule of the rest of the boundary: no floats and no
    # decimal text, which used to be read as the rationals they spell or round to
    (TransferConfig, (SHAPE, (0, 1, 2), 0.5), f"{INEXACT}0.5"),
    (TransferConfig, (SHAPE, (0, 1, 2), "0.5"), f"{INEXACT}'0.5'"),
    (TransferConfig, (SHAPE, (0, 1, 2), "1e0"), f"{INEXACT}'1e0'"),
    (archimedean_transfer, (WEIGHT, 0.5), f"{INEXACT}0.5"),
    (archimedean_transfer, (WEIGHT, "1e0"), f"{INEXACT}'1e0'"),
    (archimedean_sigma, (WEIGHT, "0.5"), f"{INEXACT}'0.5'"),
    (archimedean_sigma, (WEIGHT, 1.0), f"{INEXACT}1.0"),
    # a sequence that is not a permutation used to be inverted into a wrong answer
    (invert_permutation, ((0, 0),), "not a permutation of 0..1: (0, 0)"),
    (invert_permutation, ((1, 1),), "not a permutation of 0..1: (1, 1)"),
    (invert_permutation, ((-1, 0),), "not a permutation of 0..1: (-1, 0)"),
    (invert_permutation, ((True, 0),), "permutation entries must be integers, got True"),
    # a sigma that is not a permutation: too short, too long, out of range, repeated
    (TransferConfig, (SHAPE, (0, 1), HALF), "sigma must be a permutation of 0..2, got (0, 1)"),
    (
        TransferConfig,
        (SHAPE, (0, 1, 2, 3), HALF),
        "sigma must be a permutation of 0..2, got (0, 1, 2, 3)",
    ),
    (
        TransferConfig,
        (SHAPE, (0, 1, 3), HALF),
        "sigma must be a permutation of 0..2, got (0, 1, 3)",
    ),
    (
        TransferConfig,
        (SHAPE, (-1, 0, 1), HALF),
        "sigma must be a permutation of 0..2, got (-1, 0, 1)",
    ),
    (
        TransferConfig,
        ((2, 2), (0, 1, 1, 3), HALF),
        "sigma must be a permutation of 0..3, got (0, 1, 1, 3)",
    ),
]


@pytest.mark.parametrize("cls, args, message", ERRORS)
def test_constructor_errors(cls, args, message):
    error = InvalidSigma if message.startswith(("sigma", "not a permutation")) else ValueError
    with pytest.raises(error) as err:
        cls(*args)
    assert type(err.value) is error and str(err.value) == message


def test_constructors_normalise_fields():
    assert SymbolValue(4, 2) == SymbolValue(Fraction(4), Fraction(2))
    assert type(SymbolValue(4).value) is Fraction and SymbolValue(4).sqrt is None
    assert GroupShape([1, 2]).blocks == (1, 2)
    assert CocharVector(SHAPE, [1, 0, -1]).exps == (1, 0, -1)
    assert UnramifiedCharacter(SHAPE, [ONE] * 3).values == (ONE,) * 3
    cfg = TransferConfig([1, 2], [2, 0, 1], "1/2")
    assert (cfg.source, cfg.sigma, cfg.alpha, cfg.mu) == (SHAPE, (2, 0, 1), HALF, "M")
    assert Segment(symbol("g"), 2).d == 2
    assert LocalRepDescriptor(SHAPE, [[Segment(symbol("a"), 1)], [SEGMENT]]).segments == (
        (Segment(symbol("a"), 1),),
        (SEGMENT,),
    )
    assert AtkinLehnerFactor("p", [1, 0]).cochar == (1, 0)
    assert SphericalFactor("v", 2).degree == 2
    assert POINT.satake == (("v", ((symbol("s"),), (symbol("t"), symbol("u")))),)
    assert MockFormSpace(WEIGHT, [[POINT, 2]]).entries == ((POINT, 2),)
    # a value is kept as given, never converted: an integral float or a bool is refused
    for build in (
        lambda: CocharVector(SHAPE, [True, 0, -1]),
        lambda: Segment(symbol("g"), 2.0),
        lambda: SphericalFactor("v", 2.0),
        lambda: MockFormSpace(WEIGHT, [(POINT, 2.0)]),
    ):
        with pytest.raises(ValueError):
            build()
