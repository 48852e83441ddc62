"""JSON serialization for triples, points, data sets, and models.

Two schemas: "tetrakit/io/v1" wraps inputs (points, triples), and
"tetrakit/model/v1" wraps derived data sets.  Complex
numbers serialize as [re, im] pairs and matrices as
{"rows": r, "cols": c, "data": [[re, im], ...]} in row-major order, which
is lossless for finite doubles; non-finite entries are rejected on both
directions.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .classify import OperatorTriple
from .errors import SchemaError
from .geometry import Point3
from .matkernel import SubspaceBasis
from .models import DouglasModel, ResidualTriple, TetrablockDataSet

IO_SCHEMA = "tetrakit/io/v1"
MODEL_SCHEMA = "tetrakit/model/v1"

__all__ = [
    "IO_SCHEMA",
    "MODEL_SCHEMA",
    "matrix_to_json",
    "matrix_from_json",
    "point_to_json",
    "point_from_json",
    "triple_to_json",
    "triple_from_json",
    "dataset_to_json",
    "dataset_from_json",
    "model_to_json",
    "wrap_document",
    "parse_document",
    "load_document",
    "dump_document",
    "roundtrip_io",
    "sanitize_report",
]


def _pair(z: complex) -> list[float]:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError("non-finite complex value cannot be serialized")
    return [z.real, z.imag]


def _count(value, name: str) -> int:
    # type(), not isinstance: JSON true/false parse as bool, a subclass of int.
    if type(value) is not int or value < 0:
        raise SchemaError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _unpair(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(type(x) in (int, float) for x in obj)
    ):
        raise SchemaError(f"expected [re, im] pair, got {obj!r}")
    z = complex(obj[0], obj[1])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError("non-finite complex value rejected")
    return z


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise SchemaError("matrix must be two-dimensional")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [_pair(z) for z in a.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise SchemaError("matrix object must have rows, cols, data")
    rows, cols = _count(obj["rows"], "rows"), _count(obj["cols"], "cols")
    data = obj["data"]
    if not isinstance(data, list):
        raise SchemaError("matrix data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise SchemaError(f"expected {rows * cols} entries, found {len(data)}")
    flat = [_unpair(p) for p in data]
    return np.array(flat, dtype=complex).reshape(rows, cols)


def point_to_json(p: Point3) -> list:
    return [_pair(p.a), _pair(p.b), _pair(p.t)]


def point_from_json(obj) -> Point3:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise SchemaError("point must be [[re,im],[re,im],[re,im]]")
    return Point3(*(_unpair(x) for x in obj))


def triple_to_json(t: OperatorTriple) -> dict:
    return {"a": matrix_to_json(t.a), "b": matrix_to_json(t.b), "t": matrix_to_json(t.t)}


def triple_from_json(obj) -> OperatorTriple:
    if not isinstance(obj, dict) or not {"a", "b", "t"} <= set(obj):
        raise SchemaError("triple object must have a, b, t")
    return OperatorTriple(
        matrix_from_json(obj["a"]),
        matrix_from_json(obj["b"]),
        matrix_from_json(obj["t"]),
    )


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{name} must be true or false, got {value!r}")
    return value


def _residual_to_json(rt: ResidualTriple) -> dict:
    return {
        "r": matrix_to_json(rt.r),
        "s": matrix_to_json(rt.s),
        "w": matrix_to_json(rt.w),
        "carrier": matrix_to_json(rt.carrier.basis),
        "ambient_dim": rt.carrier.ambient_dim,
        "strict": bool(rt.strict),
    }


def _residual_from_json(obj) -> ResidualTriple:
    if not isinstance(obj, dict) or not {"r", "s", "w", "carrier"} <= set(obj):
        raise SchemaError("residual object must have r, s, w, carrier")
    basis = matrix_from_json(obj["carrier"])
    ambient = _count(obj.get("ambient_dim", basis.shape[0]), "ambient_dim")
    r, s, w = (matrix_from_json(obj[k]) for k in "rsw")
    size = basis.shape[1]
    for name, m in (("r", r), ("s", s), ("w", w)):
        if m.shape != (size, size):
            raise SchemaError(f"residual {name} has shape {m.shape}, carrier has {size} columns")
    strict = _flag(obj.get("strict", False), "strict")
    return ResidualTriple(r, s, w, SubspaceBasis(ambient, basis), strict, {})


def dataset_to_json(d: TetrablockDataSet) -> dict:
    return {
        "theta_samples": [
            {"z": _pair(z), "matrix": matrix_to_json(m)} for z, m in d.theta_samples
        ],
        "g1": matrix_to_json(d.g1),
        "g2": matrix_to_json(d.g2),
        "residual": _residual_to_json(d.residual),
        "pure_flag": bool(d.pure_flag),
    }


def dataset_from_json(obj) -> TetrablockDataSet:
    keys = {"theta_samples", "g1", "g2", "residual", "pure_flag"}
    if not isinstance(obj, dict) or not keys <= set(obj):
        raise SchemaError(f"dataset object must have {sorted(keys)}")
    if not isinstance(obj["theta_samples"], list):
        raise SchemaError("theta_samples must be a list")
    samples = []
    for item in obj["theta_samples"]:
        if not isinstance(item, dict) or not {"z", "matrix"} <= set(item):
            raise SchemaError("theta sample must have z and matrix")
        samples.append((_unpair(item["z"]), matrix_from_json(item["matrix"])))
    g1, g2 = matrix_from_json(obj["g1"]), matrix_from_json(obj["g2"])
    # G1, G2 act on the output defect: square, of the Theta samples' rows.
    size = samples[0][1].shape[0] if samples else g1.shape[0]
    if not g1.shape == g2.shape == (size, size):
        raise SchemaError(
            f"g1 has shape {g1.shape} and g2 {g2.shape}; both must be {(size, size)}"
        )
    return TetrablockDataSet(
        samples,
        g1,
        g2,
        _residual_from_json(obj["residual"]),
        _flag(obj["pure_flag"], "pure_flag"),
    )


def model_to_json(m: DouglasModel) -> dict:
    """The model's generators; the lift operators v1, v2, v3 are not written,
    since order_n, g1, g2 and the residual triple determine them."""
    return {
        "order_n": m.order_n,
        "defect_dim": m.defect_dim,
        "g1": matrix_to_json(m.g1),
        "g2": matrix_to_json(m.g2),
        "embedding": matrix_to_json(m.embedding),
        "residual": _residual_to_json(m.residual),
        "tail": m.tail,
        "deficiency": m.deficiency,
        "warnings": list(m.warnings),
    }


# Each document kind: (schema, to_json, from_json).  A model is written
# only inside the lift report, through model_to_json.
_KINDS = {
    "point": (IO_SCHEMA, point_to_json, point_from_json),
    "triple": (IO_SCHEMA, triple_to_json, triple_from_json),
    "dataset": (MODEL_SCHEMA, dataset_to_json, dataset_from_json),
}


def wrap_document(kind: str, payload) -> dict:
    if kind not in _KINDS:
        raise SchemaError(f"unknown document kind {kind!r}")
    return {"schema": _KINDS[kind][0], "kind": kind, "payload": payload}


def _document(kind: str, value) -> dict:
    """The document of a value of the given kind, through its to_json."""
    return wrap_document(kind, _KINDS[kind][1](value))


def parse_document(obj):
    """Parse a wrapped document into (kind, value)."""
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    schema = obj.get("schema")
    if schema not in (IO_SCHEMA, MODEL_SCHEMA):
        hint = ""
        if isinstance(schema, str) and schema.startswith("tetrakit/") and "/v0" in schema:
            hint = "; v0 documents are not supported, regenerate with this tool"
        raise SchemaError(f"unsupported schema {schema!r}{hint}")
    kind = obj.get("kind")
    codec = _KINDS.get(kind) if isinstance(kind, str) else None
    if codec is None:
        raise SchemaError(f"cannot parse documents of kind {kind!r}")
    wanted, _, from_json = codec
    if schema != wanted:
        raise SchemaError(f"{kind} documents have schema {wanted!r}, not {schema!r}")
    return kind, from_json(obj.get("payload"))


def load_document(path):
    """Load and parse a wrapped JSON document from disk."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno} column {exc.colno}") from exc
    return parse_document(obj)


def dump_document(kind: str, payload, path) -> None:
    Path(path).write_text(
        json.dumps(wrap_document(kind, payload), indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def roundtrip_io(path):
    """Parse a document and verify parse -> serialize -> parse is identity:
    the value parsed back must serialize to the same document."""
    kind, value = load_document(path)
    doc = _document(kind, value)
    kind2, value2 = parse_document(json.loads(json.dumps(doc, allow_nan=False)))
    if _document(kind2, value2) != doc:
        raise SchemaError(f"round trip changed the {kind} document")
    return value


def sanitize_report(obj):
    """Make a report JSON-safe: numpy scalars to floats, non-finite to strings."""
    if isinstance(obj, dict):
        return {k: sanitize_report(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_report(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return _pair(obj)
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj if obj.ndim == 2 else obj.reshape(1, -1))
    return obj
