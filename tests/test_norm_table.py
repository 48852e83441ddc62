"""The norm table of an OperatorTriple: the ten tol-free norms of (A, B, T)
are computed on first use, kept, and reported unchanged by every check."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrakit import classify as cl
from tetrakit import fundops as fo
from tetrakit import gen
from tetrakit import models as md
from tetrakit.gen import GenConfig
from tetrakit.matkernel import DEFAULT_TOL


def nrm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def direct(trip):
    """The ten norms, written out afresh."""
    a, b, t = trip.a, trip.b, trip.t
    eye = np.eye(trip.dim)
    return {
        "norm_a": nrm(a),
        "norm_b": nrm(b),
        "norm_t": nrm(t),
        "comm_ab": nrm(a @ b - b @ a),
        "comm_at": nrm(a @ t - t @ a),
        "comm_bt": nrm(b @ t - t @ b),
        "a_minus_bstar_t": nrm(a - b.conj().T @ t),
        "b_minus_astar_t": nrm(b - a.conj().T @ t),
        "isometry_t": nrm(t.conj().T @ t - eye),
        "coisometry_t": nrm(t @ t.conj().T - eye),
    }


def pick(table, *keys):
    return {k: table[k] for k in keys}


COMM = ("comm_ab", "comm_at", "comm_bt")
IDENT = ("a_minus_bstar_t", "b_minus_astar_t", "isometry_t", "coisometry_t")


def make_triple(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "commuting":
        return gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=n))
    if kind == "noncommuting":
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
        return cl.OperatorTriple(*(0.9 * m / np.linalg.norm(m, 2) for m in mats))
    if kind == "unitary":
        return gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=n))
    if kind == "mixed":
        pure = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=n))
        unit = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=n))
        mats = [scipy.linalg.block_diag(getattr(pure, k), getattr(unit, k)) for k in "abt"]
        return cl.OperatorTriple(*mats).conjugate_by(gen.haar_unitary(rng, 2 * n))
    empty = np.zeros((0, 0))
    return cl.OperatorTriple(empty, empty, empty)


KINDS = ("commuting", "noncommuting", "unitary", "mixed", "empty")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(0, 2**16))
def test_reports_equal_the_direct_formulas(kind, n, seed):
    trip = make_triple(kind, n, seed)
    want = direct(trip)
    assert trip.scale_norm() == 1.0 + max(want["norm_a"], want["norm_b"], want["norm_t"])
    assert cl.is_commuting(trip)[1] == pick(want, *COMM)
    assert cl.check_e_isometry(trip)["residuals"] == pick(want, *COMM, *IDENT)
    pc = cl.check_pc(trip)["residuals"]
    assert list(pc)[:6] == ["comm_at", "comm_bt", *IDENT]
    assert pick(pc, "comm_at", "comm_bt", *IDENT) == pick(want, "comm_at", "comm_bt", *IDENT)
    cert = cl.certify_e_contraction(trip, mc_samples=2, seed=seed)["residuals"]
    assert list(cert)[:6] == [*COMM, "norm_a", "norm_b", "norm_t"]
    assert pick(cert, *COMM, "norm_a", "norm_b", "norm_t") == pick(
        want, *COMM, "norm_a", "norm_b", "norm_t"
    )
    if kind == "noncommuting":
        return
    dec = cl.canonical_decomposition(trip)
    part = direct(dec.unitary_part)
    assert dec.residuals["t_unitary_on_hu"] == max(part["isometry_t"], part["coisometry_t"])
    rt = md.residual_triple(trip)
    if rt.dim:
        assert rt.residuals == {
            "w_isometry": part["isometry_t"],
            "w_coisometry": part["coisometry_t"],
            "pc_rw": part["comm_at"],
            "pc_sw": part["comm_bt"],
            "pc_r_eq_sstar_w": part["a_minus_bstar_t"],
            "invariance_a": dec.residuals["reduce_a"],
            "invariance_b": dec.residuals["reduce_b"],
        }
        bound = DEFAULT_TOL.eq_tol * trip.scale_norm()
        assert rt.strict == (
            part["comm_ab"] <= bound
            and part["norm_a"] <= 1.0 + DEFAULT_TOL.eq_tol
            and part["norm_b"] <= 1.0 + DEFAULT_TOL.eq_tol
        )
    if kind in ("unitary", "empty"):
        # T unitary: the defect carrier is empty in both orientations.
        for adjoint in (False, True):
            pair = fo.fundamental_pair(trip, adjoint=adjoint)
            work = direct(trip.adjoint() if adjoint else trip)
            assert pair.carrier.dim == 0
            assert pair.residuals == {
                "sandwich_1": work["a_minus_bstar_t"],
                "sandwich_2": work["b_minus_astar_t"],
            }


def reports(trip):
    """Every residual dict a triple's checks hand out."""
    return [
        cl.is_commuting(trip)[1],
        cl.check_e_isometry(trip)["residuals"],
        cl.check_pc(trip)["residuals"],
        cl.certify_e_contraction(trip, mc_samples=2)["residuals"],
        cl.classify_triple(trip, mc_samples=2).residuals,
        cl.canonical_decomposition(trip).residuals,
        md.residual_triple(trip).residuals,
        fo.fundamental_pair(trip).residuals,
    ]


def test_mutating_a_report_leaves_later_reports_alone():
    trip = make_triple("mixed", 2, 5)
    for rep in reports(trip):
        for key in rep:
            rep[key] = -1.0
    fresh = reports(cl.OperatorTriple(trip.a, trip.b, trip.t))
    assert reports(trip) == fresh
    assert all(v >= 0.0 for rep in fresh for v in rep.values())


def test_classify_then_fundamental_pair_forms_each_commutator_once(monkeypatch):
    trip = make_triple("commuting", 3, 11)
    formed = []

    def counting(x, y):
        formed.append((x, y))
        return x @ y - y @ x

    monkeypatch.setattr(cl, "commutator", counting)
    cl.classify_triple(trip, mc_samples=2)
    fo.fundamental_pair(trip)
    fo.fundamental_pair(trip, adjoint=True)
    want = [(trip.a, trip.b), (trip.a, trip.t), (trip.b, trip.t)]
    assert sorted((id(x), id(y)) for x, y in formed) == sorted((id(x), id(y)) for x, y in want)


def test_scale_norm_runs_no_svd_after_first_use(monkeypatch):
    trip = make_triple("commuting", 3, 2)
    first = trip.scale_norm()

    def no_norm(*args, **kwargs):
        raise AssertionError("norm evaluated again")

    monkeypatch.setattr(np.linalg, "svd", no_norm)
    assert trip.scale_norm() == first
    assert cl.is_commuting(cl.OperatorTriple(*(np.zeros((0, 0)),) * 3))[0]


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
)
def test_copy_and_pickle_keep_the_table(clone):
    trip = make_triple("mixed", 2, 8)
    before = cl.check_e_isometry(trip)["residuals"]
    other = clone(trip)
    assert cl.check_e_isometry(other)["residuals"] == before
    assert cl.check_pc(other)["residuals"] == cl.check_pc(trip)["residuals"]
    assert other.scale_norm() == trip.scale_norm()
    assert not any(m.flags.writeable for m in (other.a, other.b, other.t))


def test_threads_sharing_a_triple_fill_one_complete_table(monkeypatch):
    trip = make_triple("mixed", 3, 4)
    want = cl.check_e_isometry(make_triple("mixed", 3, 4))["residuals"]
    got = []
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=10)
        got.append((cl.check_e_isometry(trip)["residuals"], trip.scale_norm()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 8 and all(res == want for res, _ in got)

    def no_norm(*args, **kwargs):
        raise AssertionError("norm evaluated again")

    # Every entry the threads filled is kept: none is computed again.
    monkeypatch.setattr(np.linalg, "svd", no_norm)
    assert cl.check_e_isometry(trip)["residuals"] == want
    assert trip.scale_norm() == got[0][1]
