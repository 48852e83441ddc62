"""The four benchmark workloads: seeded inputs and the per-item gate.

A workload turns the benchmark seed into a fixed mix of items.  One item
is one closed-loop request: it calls the library (or, for
``cli-pipeline``, one CLI command) and checks the answer against the
library's own contract.  ``Item.run()`` returns ``(verdict, problems)``:

* ``verdict`` is a hashable summary of the answer, compared between the
  traced and the untraced run;
* ``problems`` lists every failed check as ``(kind, message)``.  Kind
  ``"wrong"`` is an answer that contradicts the known one (a certificate,
  a coincidence verdict, an exit code); kind ``"bound"`` is a residual
  beyond the bound the library states for it.

An item that raises, or returns any problem, counts as failed.  The
library is reached only through module attributes at call time
(``md.build_lift``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from tetrakit import classify as cl
from tetrakit import fundops as fo
from tetrakit import gen
from tetrakit import io as tio
from tetrakit import models as md
from tetrakit.gen import ClassTag, GenConfig
from tetrakit.matkernel import DEFAULT_TOL

EQ_TOL = DEFAULT_TOL.eq_tol
NU_SLACK = 1e-8  # pencil_nu_max <= 1 + NU_SLACK, as in acceptance criterion 2
PASSED = cl.Certificate.PASSED_NECESSARY.value
CERTIFIED_NOT = cl.Certificate.CERTIFIED_NOT.value


@dataclass
class Item:
    label: str  # size class, e.g. "pure-n8"; items of one label cost alike
    n: int
    run: Callable[[], tuple]
    inputs: tuple | None = None  # what the input digest covers; default run.args


def _key(seed: int, *parts: int) -> int:
    """Generator seed of one item: distinct per benchmark seed and slot."""
    key = seed
    for p in parts:
        key = key * 100 + p
    return key


def _worst(residuals: dict, names) -> tuple[str, float]:
    return max(((k, float(residuals[k])) for k in names), key=lambda kv: kv[1])


# ---------------------------------------------------------------- census


def _census_item(triple, expected: str, flag: str | None, fundamental: bool):
    rep = cl.classify_triple(triple)
    cert = rep.contraction_certificate.value
    problems = []
    if cert != expected:
        problems.append(("wrong", f"certificate {cert}, expected {expected}"))
    if flag and not getattr(rep, flag):
        problems.append(("wrong", f"{flag} is False for its generator class"))
    verdict = [cert, rep.commuting, rep.e_unitary, rep.e_isometry, rep.pc_unitary]
    if fundamental:
        bound = EQ_TOL * triple.scale_norm()
        for adjoint in (False, True):
            pair = fo.fundamental_pair(triple, adjoint=adjoint)
            name, worst = _worst(pair.residuals, ("sandwich_1", "sandwich_2"))
            if worst > bound:
                problems.append(("bound", f"{name} {worst:.3e} > {bound:.3e}"))
            if pair.pencil_nu_max > 1.0 + NU_SLACK:
                problems.append(("bound", f"pencil_nu_max {pair.pencil_nu_max!r}"))
            verdict += [pair.carrier.dim, pair.is_special]
    return tuple(verdict), problems


def census(seed: int, **_) -> list[Item]:
    """classify_triple on every generator class at n = 1..5, twice over.

    Commuting contraction classes also run fundamental_pair in both
    orientations.  The NonExample violation mode and the size of the
    special model are assigned by slot, so every seed has the same mix.
    """
    items = []
    for rep in range(2):
        for n in range(1, 6):
            for tag in ClassTag:
                key = _key(seed, n, rep)
                flag = None
                if tag is ClassTag.NON_EXAMPLE:
                    triple = gen.generate(GenConfig(3 * key + (n + rep) % 3, n, tag))
                    expected = CERTIFIED_NOT
                elif tag is ClassTag.SPECIAL_SCALAR_DATASET:
                    cfg = GenConfig(2 * key + (n + rep) % 2, 1)
                    _, triple = gen.gen_scalar_special_model(cfg)
                    expected = PASSED
                else:
                    triple = gen.generate(GenConfig(key, n, tag))
                    expected = PASSED
                    if tag is ClassTag.PC_UNITARY:
                        # (S* W, S, W) with S normal and commuting with W is a
                        # tetrablock unitary exactly when ||S|| <= 1.
                        flag = "pc_unitary"
                        if np.linalg.norm(triple.b, 2) > 1.0 + EQ_TOL:
                            expected = CERTIFIED_NOT
                    elif tag is ClassTag.STRICT_E_UNITARY:
                        flag = "e_unitary"
                fundamental = tag not in (ClassTag.NON_EXAMPLE, ClassTag.PC_UNITARY)
                run = partial(_census_item, triple, expected, flag, fundamental)
                items.append(Item(f"{tag.value}-n{triple.dim}", triple.dim, run))
    return items


# ------------------------------------------------------------ lift-scale


def _lift_item(triple, capped_expected: bool):
    model = md.build_lift(triple)
    residuals = md.verify_lift(model, triple)
    strict = md.lift_is_strict(model)
    capped = bool(model.warnings)
    problems = []
    if capped != capped_expected:
        problems.append(("wrong", f"capped={capped}, expected {capped_expected}"))
    if not capped and model.tail > 1e-10:
        problems.append(("bound", f"tail {model.tail:.3e} above the auto-order target"))
    name, worst = _worst(residuals, [k for k in residuals if k != "bound"])
    if worst > residuals["bound"]:
        problems.append(("bound", f"{name} {worst:.3e} > bound {residuals['bound']:.3e}"))
    verdict = (model.order_n, capped, model.defect_dim, model.residual.dim, strict)
    return verdict, problems


def _normal_with_radius(rng, n: int, radius: float) -> cl.OperatorTriple:
    """Commuting normal triple whose T has spectral radius ``radius``.

    Each joint eigenvalue is (x11, x22, det X) of X = rho U with U a Haar
    2x2 unitary, so it lies in the tetrablock with |t| = rho^2; the first
    takes rho^2 = radius.
    """
    rhos = [np.sqrt(radius)] + list(rng.uniform(0.3, np.sqrt(radius), n - 1))
    pts = []
    for rho in rhos:
        x = rho * gen.haar_unitary(rng, 2)
        pts.append((x[0, 0], x[1, 1], x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]))
    u = gen.haar_unitary(rng, n)
    mats = [u @ np.diag([p[i] for p in pts]) @ u.conj().T for i in range(3)]
    return cl.OperatorTriple(*mats)


NEAR_UNITARY_EPS = (1e-3, 1e-5, 1e-7, 1e-9)


def lift_scale(seed: int, **_) -> list[Item]:
    """build_lift (auto order) + verify_lift + lift_is_strict.

    Pure contractions at n = 2 (4), 8 (24), 16 and 24 (one each); one
    normal triple with spectral radius 0.97 at n = 6, which hits the order
    cap of 512; the near-unitary family (0, 0, diag(1 - eps, 0.5)).
    """
    items = []
    for n, count in ((2, 4), (8, 24), (16, 1), (24, 1)):
        for k in range(count):
            triple = gen.gen_pure_e_contraction(GenConfig(_key(seed, n, k), n))
            items.append(Item(f"pure-n{n}", n, partial(_lift_item, triple, False)))
    rng = np.random.default_rng([seed, 0x97])
    capped = _normal_with_radius(rng, 6, 0.97)
    items.append(Item("capped-n6", 6, partial(_lift_item, capped, True)))
    for eps in NEAR_UNITARY_EPS:
        zero = np.zeros((2, 2))
        triple = cl.OperatorTriple(zero, zero, np.diag([1.0 - eps, 0.5]))
        items.append(Item(f"near-unitary-{eps:g}", 2, partial(_lift_item, triple, True)))
    return items


# ------------------------------------------------------------ invariants


def _mixed_triple(seed: int, n: int) -> cl.OperatorTriple:
    """Pure part of size n // 2 plus a strict unitary, Haar-conjugated."""
    half = n // 2
    pure = gen.gen_pure_e_contraction(GenConfig(seed, half))
    unit = gen.gen_strict_e_unitary(GenConfig(seed, n - half))
    mats = [scipy.linalg.block_diag(getattr(pure, k), getattr(unit, k)) for k in "abt"]
    u = gen.haar_unitary(np.random.default_rng([seed, n, 0x31]), n)
    return cl.OperatorTriple(*mats).conjugate_by(u)


def _coincide_item(first, second, tau, expected: bool):
    d1 = md.extract_data_set(first, grid=8)
    d2 = md.extract_data_set(second, grid=8)
    rep = md.coincide(d1, d2)
    problems = []
    if rep.coincide != expected or rep.undecided:
        problems.append(
            ("wrong", f"coincide={rep.coincide} undecided={rep.undecided}, "
             f"expected {expected}: {rep.residuals}")
        )
    verdict = [rep.coincide, rep.undecided, d1.defect_dims, d1.residual.dim]
    if tau is not None:
        omega = md.omega_tau(first, second, tau)
        dev = float(np.linalg.norm(omega.conj().T @ omega - np.eye(omega.shape[0]), 2)) \
            if omega.size else 0.0
        if dev > 1e-9:
            problems.append(("bound", f"omega_tau not unitary: {dev:.3e}"))
        verdict.append(omega.shape[0])
    return tuple(verdict), problems


def _special_item(dataset, triple):
    valid = md.validate_special_data_set(dataset, 64)
    extracted = md.extract_data_set(triple, grid=16, boundary=128)
    rep = md.coincide(dataset, extracted)
    problems = []
    if not valid["passes"]:
        problems.append(("wrong", f"special set rejected: {valid['residuals']}"))
    if not rep.coincide:
        problems.append(("wrong", f"model data does not coincide: {rep.residuals}"))
    return (valid["passes"], rep.coincide, rep.undecided), problems


def invariants(seed: int, **_) -> list[Item]:
    """Data sets, coincidence and omega_tau; never builds a lift.

    Planted mismatches (4 scalar pure pairs with distinct |Theta(0)|, 4
    pairs of unrelated mixed triples) must be rejected; mixed triples
    (pure + strict unitary) at n = 4 (10) and n = 8 (14) must coincide with
    their Haar conjugates; 16 scalar special sets must validate and
    coincide with their model's data; pure pairs at n = 8, 10, 12 (grid 8)
    must coincide with their conjugates.
    """
    rng = np.random.default_rng([seed, 0x1A])
    items = []
    for k in range(4):
        t1, t2 = rng.uniform(0.1, 0.9, 2)
        while abs(t1 - t2) < 0.05:
            t1, t2 = rng.uniform(0.1, 0.9, 2)
        first = cl.OperatorTriple([[0.2]], [[0.1]], [[t1]])
        second = cl.OperatorTriple([[0.2]], [[0.1]], [[t2]])
        run = partial(_coincide_item, first, second, None, False)
        items.append(Item("mismatch-scalar", 1, run))
    for k in range(4):
        first = _mixed_triple(_key(seed, 4, k, 1), 4)
        second = _mixed_triple(_key(seed, 4, k, 2), 4)
        run = partial(_coincide_item, first, second, None, False)
        items.append(Item("mismatch-mixed-n4", 4, run))
    for n, count in ((4, 10), (8, 14)):
        for k in range(count):
            triple = _mixed_triple(_key(seed, n, k), n)
            u = gen.haar_unitary(rng, n)
            run = partial(_coincide_item, triple, triple.conjugate_by(u), u, True)
            items.append(Item(f"mixed-n{n}", n, run))
    for k in range(16):
        dataset, triple = gen.gen_scalar_special_model(GenConfig(_key(seed, 1, k), 1))
        items.append(Item("special", triple.dim, partial(_special_item, dataset, triple)))
    for n in (8, 10, 12):
        triple = gen.gen_pure_e_contraction(GenConfig(_key(seed, n), n))
        u = gen.haar_unitary(rng, n)
        run = partial(_coincide_item, triple, triple.conjugate_by(u), None, True)
        items.append(Item(f"pure-n{n}", n, run))
    return items


# ---------------------------------------------------------- cli-pipeline


class CliRunner:
    """Runs one CLI command per item, in a fresh interpreter each time.

    Untraced, the child is ``python -m tetrakit.cli``; traced, it is the
    benchmark's launcher, which times the import and wraps the library.
    ``walls`` keeps (command, seconds) of every call for the traced report.
    """

    def __init__(self, python: str, env: dict, workdir: Path, launcher: Path):
        self.python = python
        self.env = env
        self.workdir = workdir
        self.launcher = launcher
        self.traced = False
        self.calls = 0
        self.stderr = ""
        self.walls: list[tuple[str, float]] = []

    def __call__(self, *args: str) -> int:
        self.calls += 1
        if self.traced:
            spans = self.workdir / f"spans-{self.calls}.json"
            cmd = [self.python, str(self.launcher), str(spans), *args]
        else:
            cmd = [self.python, "-m", "tetrakit.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.workdir,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        self.walls.append((args[0], time.perf_counter() - start))
        self.stderr = proc.stderr.decode(errors="replace").strip()[-200:]
        return proc.returncode


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_item(runner: CliRunner, args: tuple, want_exit: int, check=None):
    code = runner(*args)
    problems = []
    if code != want_exit:
        problems.append(("wrong", f"{' '.join(args)}: exit {code}, expected {want_exit}: "
                                  f"{runner.stderr}"))
        return (code,), problems
    extra = check() if check else ((), [])
    return (code, *extra[0]), problems + extra[1]


def _check_generated(path: Path, expected: cl.OperatorTriple):
    payload = _report(path)["payload"]
    same = all(
        np.array_equal(tio.matrix_from_json(payload[k]), getattr(expected, k))
        for k in "abt"
    )
    return (same,), [] if same else [("wrong", f"{path.name} differs from tetrakit.gen")]


def _check_classify(path: Path, expected: str):
    cert = _report(path)["classification"]["contraction_certificate"]
    return (cert,), [] if cert == expected else [("wrong", f"certificate {cert}")]


def _check_fundops(path: Path, scale: float):
    rep = _report(path)["fundamental_pair"]
    problems = []
    name, worst = _worst(rep["residuals"], ("sandwich_1", "sandwich_2"))
    if worst > EQ_TOL * scale:
        problems.append(("bound", f"{name} {worst:.3e}"))
    if rep["pencil_nu_max"] > 1.0 + NU_SLACK:
        problems.append(("bound", f"pencil_nu_max {rep['pencil_nu_max']!r}"))
    return (rep["carrier_dim"], rep["is_special"]), problems


def _check_lift(path: Path):
    rep = _report(path)
    res = rep["residuals"]
    name, worst = _worst(res, [k for k in res if k != "bound"])
    problems = [] if worst <= res["bound"] else [("bound", f"{name} {worst:.3e}")]
    return (rep["model"]["order_n"], rep["model"]["strict"]), problems


def _check_flag(path: Path, section: str, key: str):
    value = _report(path)[section][key]
    return (value,), [] if value is True else [("wrong", f"{section}.{key} is {value}")]


def _check_kind(path: Path, kind: str):
    got = _report(path)["kind"]
    return (got,), [] if got == kind else [("wrong", f"{path.name} has kind {got}")]


def cli_pipeline(seed: int, runner: CliRunner, **_) -> list[Item]:
    """generate -> classify -> fundops -> lift -> verify -> dataset ->
    coincide on three pure triples (two at n = 2, one at n = 3), generate ->
    validate-special on a special data set, and generate -> classify on two
    NonExample triples, whose classify must exit 2.  The Haar conjugate
    that the coincide step compares against is written in set-up."""
    wd = runner.workdir
    rng = np.random.default_rng([seed, 0xC1])
    items = []

    def add(label, n, args, want=0, check=None, data=None):
        run = partial(_cli_item, runner, args, want, check)
        items.append(Item(label, n, run, (args, data)))

    for n, count in ((2, 2), (3, 1)):
        for rep in range(count):
            key = _key(seed, n, rep)
            triple = gen.gen_pure_e_contraction(GenConfig(key, n))
            conj = triple.conjugate_by(gen.haar_unitary(rng, n))
            p = f"pure-{n}-{rep}"
            tio.dump_document("triple", tio.triple_to_json(conj), wd / f"{p}-conj.json")
            add("generate", n, ("generate", "--class", "PureEContraction", "--seed",
                                str(key), "--dim", str(n), "--out", f"{p}.json"),
                check=partial(_check_generated, wd / f"{p}.json", triple), data=triple)
            add("classify", n, ("classify", f"{p}.json", "--out", f"{p}-cls.json"),
                check=partial(_check_classify, wd / f"{p}-cls.json", PASSED))
            add("fundops", n, ("fundops", f"{p}.json", "--out", f"{p}-fo.json"),
                check=partial(_check_fundops, wd / f"{p}-fo.json", triple.scale_norm()))
            add("lift", n, ("lift", f"{p}.json", "--out", f"{p}-lift.json"),
                check=partial(_check_lift, wd / f"{p}-lift.json"))
            add("verify", n, ("verify", f"{p}.json", "--out", f"{p}-ver.json"),
                check=partial(_check_lift, wd / f"{p}-ver.json"))
            add("dataset", n, ("dataset", f"{p}.json", "--grid", "8", "--out", f"{p}-ds.json"),
                check=partial(_check_kind, wd / f"{p}-ds.json", "dataset"))
            add("dataset", n, ("dataset", f"{p}-conj.json", "--grid", "8",
                               "--out", f"{p}-ds2.json"),
                check=partial(_check_kind, wd / f"{p}-ds2.json", "dataset"), data=conj)
            add("coincide", n, ("coincide", f"{p}-ds.json", "--other", f"{p}-ds2.json",
                                "--out", f"{p}-co.json"),
                check=partial(_check_flag, wd / f"{p}-co.json", "coincide", "coincide"))
    for rep in range(1):
        key = _key(seed, 1, rep)
        s = f"special-{rep}"
        add("generate", 1, ("generate", "--class", "SpecialScalarDataSet", "--seed",
                            str(key), "--out", f"{s}.json"),
            check=partial(_check_kind, wd / f"{s}.json", "dataset"))
        add("validate-special", 1, ("validate-special", f"{s}.json", "--modes", "64",
                                    "--out", f"{s}-val.json"),
            check=partial(_check_flag, wd / f"{s}-val.json", "validate_special", "passes"))
    for rep in range(2):
        key = _key(seed, 3, rep)
        q = f"negative-{rep}"
        add("generate", 3, ("generate", "--class", "NonExample", "--seed", str(key),
                            "--dim", "3", "--out", f"{q}.json"),
            check=partial(_check_kind, wd / f"{q}.json", "triple"))
        add("classify", 3, ("classify", f"{q}.json", "--out", f"{q}-cls.json"), want=2,
            check=partial(_check_classify, wd / f"{q}-cls.json", CERTIFIED_NOT))
    return items


WORKLOADS = {
    "census": census,
    "lift-scale": lift_scale,
    "invariants": invariants,
    "cli-pipeline": cli_pipeline,
}


def input_digest(items: list[Item]) -> str:
    """sha256 over every array and scalar the items were built from."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, cl.OperatorTriple):
            for m in (obj.a, obj.b, obj.t):
                feed(m)
        elif isinstance(obj, md.TetrablockDataSet):
            for z, m in obj.theta_samples:
                h.update(repr(complex(z)).encode())
                feed(m)
            feed(obj.g1)
            feed(obj.g2)
        elif isinstance(obj, (tuple, list)):
            for x in obj:
                feed(x)
        elif obj is None:
            h.update(b"-")
        else:
            h.update(repr(obj).encode())

    for item in items:
        h.update(item.label.encode())
        feed(item.run.args if item.inputs is None else item.inputs)
    return h.hexdigest()
