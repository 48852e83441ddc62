"""One contraction rule at every stage.

A triple whose T has norm 1 + delta passes or fails ||T|| <= 1 + eq_tol in
every stage alike: within the rule, classify, the fundamental pair in both
orientations, the lift, the data set and the canonical decomposition all
accept it; beyond it, classify reports the norm bound and every other stage
raises NotAContractionError.  The same holds when A or B has norm 1 + delta
and ||T|| <= 0.5, except that the canonical decomposition, which reads only
T, accepts the triple either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrakit import classify as cl
from tetrakit import fundops as fo
from tetrakit import gen
from tetrakit import models as md
from tetrakit.errors import NotAContractionError
from tetrakit.matkernel import DEFAULT_TOL

EQ_TOL = DEFAULT_TOL.eq_tol

# delta stays 1e-14 away from eq_tol, where the eigh-based norm of defect
# and the svd-based norm of the norm table may round to different sides.
DELTAS = st.one_of(
    st.floats(0.0, EQ_TOL - 1e-14), st.floats(EQ_TOL + 1e-14, 10.0 * EQ_TOL)
)
PHASES = st.floats(0.0, 1.0)


def tetrablock_pair(draw, t):
    """(a, b) = (b1 + conj(b2) t, b2 + conj(b1) t) with |b1| + |b2| <= 0.9,
    so that each (a_j, b_j, t_j) with |t_j| <= 1 lies in the closed tetrablock."""
    r1 = draw(st.floats(0.0, 0.9))
    r2 = draw(st.floats(0.0, 0.9 - r1))
    b1, b2 = (r * np.exp(2j * np.pi * draw(PHASES)) for r in (r1, r2))
    return b1 + np.conj(b2) * t, b2 + np.conj(b1) * t


def conjugated(draw, a, b, t):
    """The normal triple (A, B, T) with joint eigenvalues (a_j, b_j, t_j) in a Haar basis."""
    u = gen.haar_unitary(np.random.default_rng(draw(st.integers(0, 2**16))), len(t))
    return cl.OperatorTriple(*(u @ np.diag(d) @ u.conj().T for d in (a, b, t)))


@st.composite
def edge_triples(draw):
    """(triple, delta): a Haar-conjugated normal triple whose T has one
    eigenvalue of modulus 1 + delta and the others unimodular or of modulus
    at most 0.9.  A and B are zero, or b1 + conj(b2) T and b2 + conj(b1) T
    with |b1| + |b2| <= 0.9, so each joint eigenvalue with |t| <= 1 lies in
    the closed tetrablock."""
    n = draw(st.integers(1, 3))
    delta = draw(DELTAS)
    radii = [1.0 + delta] + draw(
        st.lists(st.just(1.0) | st.floats(0.0, 0.9), min_size=n - 1, max_size=n - 1)
    )
    angles = draw(st.lists(PHASES, min_size=n, max_size=n))
    t = np.array(radii) * np.exp(2j * np.pi * np.array(angles))
    a, b = tetrablock_pair(draw, t) if draw(st.booleans()) else (np.zeros(n), np.zeros(n))
    return conjugated(draw, a, b, t), delta


@st.composite
def norm_edge_triples(draw):
    """(triple, delta): a Haar-conjugated normal triple whose A, or B, has one
    eigenvalue of modulus 1 + delta, and whose T has norm at most 0.5, so no
    unitary part.  That joint eigenvalue is ((1 + delta) u, conj(u) t, t)
    with |u| = 1, or its swap; the others are as in tetrablock_pair.  (A
    point of the closed tetrablock with |a| = 1 has b = conj(a) t and
    ab = t; for t != 0 the scaled point is delta |t| off that thin set,
    where the swapped disk criterion is +inf.)"""
    n = draw(st.integers(1, 3))
    delta = draw(DELTAS)
    radii = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    angles = draw(st.lists(PHASES, min_size=n, max_size=n))
    t = np.array(radii) * np.exp(2j * np.pi * np.array(angles))
    a, b = tetrablock_pair(draw, t)
    u = np.exp(2j * np.pi * draw(PHASES))
    a[0], b[0] = (1.0 + delta) * u, np.conj(u) * t[0]
    if draw(st.booleans()):
        a, b = b, a
    return conjugated(draw, a, b, t), delta


def check_every_stage(triple, delta, t_edge):
    """Every stage accepts the triple when delta <= eq_tol and rejects it as
    NotAContractionError beyond; the canonical decomposition is held to the
    rule only when T is the operator at the edge (t_edge)."""
    report = cl.classify_triple(triple, mc_samples=8)
    if delta > EQ_TOL:
        assert report.failed_checks == ["norm_bound"]
        stages = [
            lambda: fo.fundamental_pair(triple),
            lambda: fo.fundamental_pair(triple, adjoint=True),
            lambda: md.build_lift(triple),
            lambda: md.extract_data_set(triple, grid=4),
        ]
        if t_edge:
            stages.append(lambda: cl.canonical_decomposition(triple))
        else:
            assert cl.canonical_decomposition(triple).h_u.dim == 0
        for stage in stages:
            with pytest.raises(NotAContractionError):
                stage()
        return
    assert report.contraction_certificate is cl.Certificate.PASSED_NECESSARY
    assert report.failed_checks == []
    for adjoint in (False, True):
        fo.fundamental_pair(triple, adjoint=adjoint)
    model = md.build_lift(triple)
    residuals = md.verify_lift(model, triple)
    assert max(v for k, v in residuals.items() if k != "bound") <= residuals["bound"]
    md.extract_data_set(triple, grid=4)
    # An eigenvalue of T of modulus 1 + delta is unimodular to compute_Q.
    unimodular = np.abs(np.abs(np.linalg.eigvals(triple.t)) - 1.0) <= 1e-6
    assert cl.canonical_decomposition(triple).h_u.dim == np.count_nonzero(unimodular)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edge_triples())
def test_every_stage_applies_one_contraction_rule(case):
    check_every_stage(*case, t_edge=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(norm_edge_triples())
def test_every_stage_holds_a_and_b_to_the_rule(case):
    check_every_stage(*case, t_edge=False)
