"""Refusals of the value constructors and the lattice operations.

Each row is one faulty input, the exception type it raises and the whole
message; every other argument of the call is valid, so the row's fault is
the one refused.
"""

import pytest

from whitdim import (
    ApartmentPoint,
    BasedRootDatum,
    CoverSpec,
    FiniteAbelianStructure,
    FrobeniusAction,
    LusztigParameter,
    Sublattice,
    WeylInvariantForm,
    build_glr,
    build_torus,
    glr_cover,
    is_general_position,
)
from whitdim.lattice import congruence_kernel, fixed_sublattice, index, quotient_hnf

GL2_ROOTS = ((1, -1), (-1, 1))
IDENTITY_1 = FrobeniusAction(((1,),))

REFUSALS = {
    "datum rank zero": (
        lambda: BasedRootDatum(0, (), (), ()),
        ValueError, "rank must be a positive integer"),
    "datum rank not an integer": (
        lambda: BasedRootDatum(2.0, GL2_ROOTS, GL2_ROOTS, (0,)),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "torus rank not an integer": (
        lambda: build_torus(2.0),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "lattice rank not an integer": (
        lambda: Sublattice(2.0, ()),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "roots not index-paired": (
        lambda: BasedRootDatum(2, GL2_ROOTS, GL2_ROOTS[:1], (0,)),
        ValueError, "roots and coroots must be index-paired"),
    "root of the wrong length": (
        lambda: BasedRootDatum(2, ((1, -1, 0),), ((1, -1, 0),), (0,)),
        ValueError, "root/coroot vectors must have length equal to the rank"),
    "coroot of the wrong length": (
        lambda: BasedRootDatum(2, GL2_ROOTS, ((1, -1), (-1,)), (0,)),
        ValueError, "root/coroot vectors must have length equal to the rank"),
    "duplicate roots": (
        lambda: BasedRootDatum(2, ((1, -1), (1, -1)), GL2_ROOTS, (0,)),
        ValueError, "roots must be distinct"),
    "simple index past the roots": (
        lambda: BasedRootDatum(2, GL2_ROOTS, GL2_ROOTS, (2,)),
        ValueError, "simple indices out of range"),
    "negative simple index": (
        lambda: BasedRootDatum(2, GL2_ROOTS, GL2_ROOTS, (-1,)),
        ValueError, "simple indices out of range"),
    "Frobenius of the wrong size": (
        lambda: BasedRootDatum(2, GL2_ROOTS, GL2_ROOTS, (0,), IDENTITY_1),
        ValueError, "Frobenius matrix size does not match the rank"),
    "Frobenius not square": (
        lambda: FrobeniusAction(((1, 0),)),
        ValueError, "Frobenius matrix must be square"),
    "empty gram": (
        lambda: WeylInvariantForm(()),
        ValueError, "gram matrix must be square and non-empty"),
    "gram not square": (
        lambda: WeylInvariantForm(((2, 0),)),
        ValueError, "gram matrix must be square and non-empty"),
    "form of the wrong size": (
        lambda: CoverSpec(build_glr(2), WeylInvariantForm(((2,),)), 1, 5),
        ValueError, "form size does not match the root datum rank"),
    "coordinates of a vector of the wrong length": (
        lambda: Sublattice.full(2).coordinates((1,)),
        ValueError, "vector length does not match the ambient rank"),
    "negative free rank": (
        lambda: FiniteAbelianStructure((2,), -1),
        ValueError, "free rank must be non-negative"),
    "index across ambient ranks": (
        lambda: index(Sublattice.full(2), Sublattice.full(3)),
        ValueError, "ambient ranks differ"),
    "fixed lattice of nothing without a rank": (
        lambda: fixed_sublattice([]),
        ValueError, "ambient rank is required when no endomorphisms are given"),
    "congruence kernel mod 0": (
        lambda: congruence_kernel(((1, 2),), 0, 2),
        ValueError, "modulus must be positive"),
    "relation matrix of an infinite quotient": (
        lambda: quotient_hnf(Sublattice.full(2), Sublattice(2, ((1, 0),))),
        ValueError, "quotient is infinite: ranks differ"),
    "point without coordinates": (
        lambda: ApartmentPoint(()),
        ValueError, "an apartment point needs at least one coordinate"),
    "parameter with w not square": (
        lambda: LusztigParameter(((0, 1),), 5, (1, 3)),
        ValueError, "w must be a square matrix matching the length of theta"),
    "parameter of the wrong dimension": (
        lambda: is_general_position(LusztigParameter(((1,),), 5, (1,)),
                                    glr_cover(2, 0, 1, 4, 5)),
        ValueError, "parameter dimension does not match the cover"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_a_boolean_rank_is_stored_as_an_int():
    datum = BasedRootDatum(True, (), (), ())
    assert type(datum.rank) is int and datum == build_torus(1)
    lattice = Sublattice(True, ())
    assert type(lattice.ambient_rank) is int and lattice == Sublattice.zero(1)
