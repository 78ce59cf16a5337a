"""Value semantics of whitdim's classes, and what importing the package loads.

Each public class is built from its fields, positionally or by keyword;
equality and the hash run over those fields only, between instances of one
class; fields cannot be assigned or deleted; and the repr is
``Name(field=value, ...)``.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from whitdim import (
    ApartmentPoint,
    BasedRootDatum,
    CoverSpec,
    FiniteAbelianStructure,
    FrobeniusAction,
    LusztigParameter,
    ResidualRootData,
    Sublattice,
    WeylGroup,
    WeylInvariantForm,
    build_glr,
    glr_cover,
    residual_extension,
    weyl_group,
)
import whitdim.cli  # noqa: F401  (defines no value class, which the walk below checks)
from whitdim._frozen import Frozen
from whitdim.parahoric import _PointRoots, _integral_roots
from whitdim.whittaker import GLrTable, glr_table

SRC = Path(__file__).resolve().parent.parent / "src"

GL2_ROOTS = ((1, -1), (-1, 1))
SWAP = ((0, 1), (1, 0))
POINT_FIELDS = ("x", "point", "denominator", "numerators", "integral", "coroot_span")


def _cases():
    """(class, field names, field values), the values as the class keeps them."""
    cover = glr_cover(2, 0, 1, 4, 5)
    residual = residual_extension(cover, (Fraction(1, 2), Fraction(-1, 2)))
    group = weyl_group(build_glr(2))
    point = _integral_roots(build_glr(2), (Fraction(1, 2), Fraction(-1, 2)))
    table = glr_table(2, 5, 4, 0, 1)
    return [
        (Sublattice, ("ambient_rank", "basis"), (2, ((2, 1), (0, 3)))),
        (FiniteAbelianStructure, ("invariant_factors", "free_rank"), ((2, 4), 1)),
        (FrobeniusAction, ("matrix",), (SWAP,)),
        (BasedRootDatum, ("rank", "roots", "coroots", "simple_indices", "fr"),
         (2, GL2_ROOTS, GL2_ROOTS, (0,), FrobeniusAction(((1, 0), (0, 1))))),
        (WeylGroup, ("rank", "simple_pairs", "order", "blocks"),
         tuple(getattr(group, name) for name in ("rank", "simple_pairs", "order", "blocks"))),
        (WeylInvariantForm, ("gram",), (((0, 1), (1, 0)),)),
        (CoverSpec, ("datum", "form", "n", "q"), (cover.datum, cover.form, 4, 5)),
        (ApartmentPoint, ("coords",), ((Fraction(1, 2), Fraction(-1, 2)),)),
        (ResidualRootData, ("point", "phi_x", "iota", "lambda_lattice"),
         tuple(getattr(residual, name) for name in ("point", "phi_x", "iota", "lambda_lattice"))),
        (_PointRoots, POINT_FIELDS, tuple(getattr(point, name) for name in POINT_FIELDS)),
        (LusztigParameter, ("w", "denominator", "numerators", "central"),
         (SWAP, 5, (1, 3), 2)),
        (GLrTable, ("r", "modulus", "period", "emitting"),
         (table.r, table.modulus, table.period, table.emitting)),
    ]


CASES = _cases()


@pytest.mark.parametrize("cls, names, values", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, names, values):
    obj = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(obj, name) for name in names) == values
    assert obj == by_keyword and hash(obj) == hash(by_keyword)
    # what the instance dict holds besides the fields takes no part
    vars(by_keyword)["_beside_the_fields"] = object()
    assert obj == by_keyword and hash(obj) == hash(by_keyword)

    # another class, even a subclass, with the same fields is not equal
    other = type("Other", (cls,), {})(*values)
    assert obj != other and other != obj
    assert obj.__eq__(other) is NotImplemented
    assert obj != values

    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == by_keyword
    with pytest.raises(AttributeError):
        obj.not_a_field = 1

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(obj) == f"{cls.__name__}({fields})"


def test_defaults():
    datum = BasedRootDatum(2, GL2_ROOTS, GL2_ROOTS, (0,))
    assert datum.fr == FrobeniusAction(((1, 0), (0, 1)))
    assert datum == BasedRootDatum(2, GL2_ROOTS, GL2_ROOTS, (0,), None, False)
    # grown from the simple pair, the datum is the one given in full
    grown = BasedRootDatum(2, GL2_ROOTS[:1], GL2_ROOTS[:1], (0,), _grow=True)
    assert grown == datum and hash(grown) == hash(datum)
    param = LusztigParameter(SWAP, 5, (1, 3))
    assert param.central == 0 and param == LusztigParameter(SWAP, 5, (1, 3), central=0)


def test_values_found_by_validation_stay_out_of_equality():
    datum = build_glr(3)
    assert datum.heights and datum == BasedRootDatum(3, datum.roots, datum.coroots,
                                                     datum.simple_indices)
    frobenius = FrobeniusAction(SWAP)
    assert frobenius.order == 2 and vars(frobenius).keys() == {"matrix", "order"}
    assert repr(frobenius) == f"FrobeniusAction(matrix={SWAP!r})"
    cover = glr_cover(2, 0, 1, 4, 5)
    assert cover.p == vars(cover)["p"] == 5 and "p=" not in repr(cover)


def test_every_value_class_is_a_case():
    """Every subclass of the frozen base that whitdim or its command line
    defines is a case of ``test_value_semantics``."""
    found, unseen = set(), [Frozen]
    while unseen:
        for cls in unseen.pop().__subclasses__():
            if cls.__module__.split(".")[0] == "whitdim" and cls not in found:
                found.add(cls)
                unseen.append(cls)
    assert found == {case[0] for case in CASES}


class Pair(Frozen):
    """Two fields and nothing to check: the base's constructor stores them."""

    _fields = ("a", "b")


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),
    ((1, 2, 3), {}),
    ((1,), {"b": 2, "c": 3}),
    ((1,), {"a": 1, "b": 2}),
    ((), {"a": 1}),
])
def test_the_base_refuses_a_wrong_count_or_name(args, kwargs):
    assert vars(Pair(1, 2)) == vars(Pair(b=2, a=1)) == {"a": 1, "b": 2}
    with pytest.raises(TypeError, match=r"^Pair\(\) takes the fields a, b, each once, by "
                                        "position or keyword$"):
        Pair(*args, **kwargs)


def test_building_a_cover_calls_post_init_on_the_class(monkeypatch):
    """The traced benchmark wraps ``CoverSpec.__post_init__`` for its
    ``cover.cover_spec`` span and keys a dict by cover."""
    calls = []
    validate = CoverSpec.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(CoverSpec, "__post_init__", counted)
    cover = glr_cover(2, 0, 1, 4, 5)
    assert len(calls) == 1 and calls[0] is cover
    same = CoverSpec(cover.datum, cover.form, 4, 5)
    assert len(calls) == 2 and calls[1] is same
    bounds = {cover: 1}
    assert bounds[same] == 1 and bounds[glr_cover(2, 0, 1, 4, 5)] == 1


def test_import_loads_no_dataclasses_or_inspect():
    """``import whitdim`` and the CLI load neither ``dataclasses`` nor the
    ``inspect`` it imports (with ``ast``, ``dis`` and ``tokenize``)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import whitdim, whitdim.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
