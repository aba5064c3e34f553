"""Workload traces: tensors, kernels, and their serialized form.

A trace describes exactly one training iteration; multi-iteration behavior
comes from replaying it. Kernels execute serially in index order.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field


class TraceError(ValueError):
    """Base class for trace validation failures."""


class MalformedInputError(TraceError):
    """Bad JSON, missing field, or wrong type."""


class DanglingTensorRefError(TraceError):
    """A kernel references an unknown tensor id."""


class NonPositiveValueError(TraceError):
    """A size or duration that must be positive is not."""


class DuplicateIdError(TraceError):
    """Two tensors share an id."""


class InvalidParamsError(TraceError):
    """Synthesis parameters outside their domain."""


class TensorKind(enum.Enum):
    GLOBAL = "global"
    INTERMEDIATE = "intermediate"
    UNSPECIFIED = None


@dataclass(frozen=True)
class TensorDescriptor:
    id: int
    size_bytes: int
    kind: TensorKind = TensorKind.UNSPECIFIED


@dataclass(frozen=True)
class KernelRecord:
    index: int
    name: str
    duration_us: int
    inputs: frozenset[int]
    outputs: frozenset[int]

    def tensors(self):
        return self.inputs | self.outputs


@dataclass(frozen=True)
class WorkloadTrace:
    tensors: dict[int, TensorDescriptor]
    kernels: tuple[KernelRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def total_us(self):
        return sum(k.duration_us for k in self.kernels)


def _as_int(obj, what):
    # bool is an int subclass; reject it explicitly
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise MalformedInputError(f"{what} must be an integer, got {obj!r}")
    return obj


def parse_trace(raw) -> WorkloadTrace:
    """Parse a UTF-8 JSON byte stream (or str) into a validated trace.

    Each check formats its message only when it fails.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInputError("top level must be an object")
    for key in ("tensors", "kernels"):
        if key not in doc:
            raise MalformedInputError(f"missing field {key!r}")
        if not isinstance(doc[key], list):
            raise MalformedInputError(f"{key!r} must be a list")

    tensors: dict[int, TensorDescriptor] = {}
    for entry in doc["tensors"]:
        if not isinstance(entry, dict):
            raise MalformedInputError("tensor entry must be an object")
        for key in ("id", "size_bytes", "kind"):
            if key not in entry:
                raise MalformedInputError(f"tensor missing field {key!r}")
        tid = _as_int(entry["id"], "tensor id")
        size = _as_int(entry["size_bytes"], "size_bytes")
        if size <= 0:
            raise NonPositiveValueError(f"tensor {tid}: size_bytes must be > 0")
        kind_raw = entry["kind"]
        if kind_raw not in ("global", "intermediate", None):
            raise MalformedInputError(f"tensor {tid}: bad kind {kind_raw!r}")
        if tid in tensors:
            raise DuplicateIdError(f"duplicate tensor id {tid}")
        tensors[tid] = TensorDescriptor(tid, size, TensorKind(kind_raw))

    kernels = []
    for pos, entry in enumerate(doc["kernels"]):
        if not isinstance(entry, dict):
            raise MalformedInputError("kernel entry must be an object")
        for key in ("index", "name", "duration_us", "inputs", "outputs"):
            if key not in entry:
                raise MalformedInputError(f"kernel missing field {key!r}")
        idx = _as_int(entry["index"], "kernel index")
        if idx != pos:
            raise MalformedInputError(
                f"kernel indices must be contiguous from 0 "
                f"(position {pos} has index {idx})")
        name = entry["name"]
        if not isinstance(name, str):
            raise MalformedInputError("kernel name must be a string")
        dur = _as_int(entry["duration_us"], "duration_us")
        if dur <= 0:
            raise NonPositiveValueError(f"kernel {idx}: duration_us must be > 0")
        refs = {}
        for key in ("inputs", "outputs"):
            ids = entry[key]
            if not isinstance(ids, list):
                raise MalformedInputError(f"{key} must be a list")
            # every ref is type-checked before any is looked up; only a
            # non-int can fail _as_int, so plain ints skip the call
            for t in ids:
                if t.__class__ is not int:
                    _as_int(t, "tensor ref")
            for t in ids:
                if t not in tensors:
                    raise DanglingTensorRefError(
                        f"kernel {idx} references unknown tensor {t}")
            refs[key] = frozenset(ids)
        if not (refs["inputs"] or refs["outputs"]):
            raise MalformedInputError(f"kernel {idx} touches no tensors")
        kernels.append(KernelRecord(idx, name, dur, refs["inputs"], refs["outputs"]))

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MalformedInputError("metadata must be an object")
    meta = {str(k): str(v) for k, v in metadata.items()}
    return WorkloadTrace(tensors=tensors, kernels=tuple(kernels), metadata=meta)


def serialize_trace(trace: WorkloadTrace) -> str:
    """Canonical JSON text; parse(serialize(t)) == t byte-for-byte stable."""
    doc = {
        "tensors": [
            {"id": t.id, "size_bytes": t.size_bytes, "kind": t.kind.value}
            for t in sorted(trace.tensors.values(), key=lambda t: t.id)
        ],
        "kernels": [
            {
                "index": k.index,
                "name": k.name,
                "duration_us": k.duration_us,
                "inputs": sorted(k.inputs),
                "outputs": sorted(k.outputs),
            }
            for k in trace.kernels
        ],
        "metadata": {k: trace.metadata[k] for k in sorted(trace.metadata)},
    }
    return json.dumps(doc, indent=2) + "\n"


def _draw(dist, rng, what):
    """Draw one positive int from a constant or (lo, hi) uniform spec."""
    if isinstance(dist, int) and not isinstance(dist, bool):
        value = dist
    elif (isinstance(dist, tuple) and len(dist) == 2
          and all(isinstance(v, int) for v in dist)):
        lo, hi = dist
        if lo > hi:
            raise InvalidParamsError(f"{what}: empty range {dist}")
        value = rng.randint(lo, hi)
    else:
        raise InvalidParamsError(f"{what}: expected int or (lo, hi) tuple, got {dist!r}")
    if value <= 0:
        raise InvalidParamsError(f"{what}: values must be positive, got {value}")
    return value


def synthesize_trace(layers, act_size, weight_size, dur, seed=0) -> WorkloadTrace:
    """Deterministic training-style trace: forward then backward kernels.

    Forward kernel i reads W_i (and A_{i-1} for i > 0) and writes A_i;
    backward kernel 2*layers-1-i reads W_i and A_i and writes the weight
    gradient. Weights are global, activations and gradients intermediate.
    Size and duration specs are ints or (lo, hi) uniform ranges.
    """
    if not isinstance(layers, int) or layers <= 0:
        raise InvalidParamsError(f"layers must be a positive int, got {layers!r}")
    rng = random.Random(seed)

    # ids: weights, then activations, then gradients, each in layer order
    w_id = lambda i: i
    a_id = lambda i: layers + i
    g_id = lambda i: 2 * layers + i

    tensors = {}
    for i in range(layers):
        tensors[w_id(i)] = TensorDescriptor(
            w_id(i), _draw(weight_size, rng, "weight_size"), TensorKind.GLOBAL)
    for i in range(layers):
        tensors[a_id(i)] = TensorDescriptor(
            a_id(i), _draw(act_size, rng, "act_size"), TensorKind.INTERMEDIATE)
    for i in range(layers):
        # weight gradients mirror their weight's shape
        tensors[g_id(i)] = TensorDescriptor(
            g_id(i), tensors[w_id(i)].size_bytes, TensorKind.INTERMEDIATE)

    kernels = []
    for i in range(layers):
        inputs = {w_id(i)} if i == 0 else {w_id(i), a_id(i - 1)}
        kernels.append(KernelRecord(i, f"fwd_{i}", _draw(dur, rng, "dur"),
                                    frozenset(inputs), frozenset({a_id(i)})))
    for k in range(layers, 2 * layers):
        i = 2 * layers - 1 - k
        kernels.append(KernelRecord(k, f"bwd_{i}", _draw(dur, rng, "dur"),
                                    frozenset({w_id(i), a_id(i)}),
                                    frozenset({g_id(i)})))

    meta = {"generator": "synthetic", "layers": str(layers), "seed": str(seed)}
    return WorkloadTrace(tensors=tensors, kernels=tuple(kernels), metadata=meta)
